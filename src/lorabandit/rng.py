"""Per-device random streams: PCG64 seeded through SeedSequence, in pure Python.

``device_rng(seed, i, stream)`` yields the same numbers, call for call, as
``numpy.random.default_rng(numpy.random.SeedSequence([seed & (2**64 - 1), i,
stream]))``: SeedSequence's entropy pool and ``generate_state``, the PCG64
generator with XSL-RR output (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
2014), its one-word uint32 buffer, and numpy's bounded integers by Lemire's
method (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
2019). Only the scalar ``random()`` and ``integers(low, high)`` are provided.
"""

from __future__ import annotations

from itertools import permutations

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
POOL_SIZE = 4

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1
INT64_MIN, INT64_END = -(1 << 63), 1 << 63


def _words(n: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError(f"entropy must be non-negative, got {n}")
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """SeedSequence's first n + 1 hash constants: init, then each times mult."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & MASK32)
    return consts


# The constants do not depend on the entropy, so they are tables. The k-th
# hashmix xors its value with HASH_A[k] and multiplies it by HASH_A[k + 1]:
# the first POOL_SIZE fill the pool, the next POOL_SIZE·(POOL_SIZE - 1) mix
# its words into each other (_MIXES: source, destination and both
# constants). Output word k is pool word k % POOL_SIZE hashed with HASH_B[k]
# and HASH_B[k + 1], and words 2j and 2j + 1 make state word j (_OUTPUT).
HASH_A = _hash_consts(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE)
HASH_B = _hash_consts(INIT_B, MULT_B, 8)
_MIXES = [(src, dst, HASH_A[k], HASH_A[k + 1])
          for k, (src, dst) in enumerate(permutations(range(POOL_SIZE), 2), start=POOL_SIZE)]
_OUTPUT = [(k % POOL_SIZE, HASH_B[k], HASH_B[k + 1], (k + 1) % POOL_SIZE, HASH_B[k + 1],
            HASH_B[k + 2]) for k in range(0, 8, 2)]


def seed_state(entropy: list[int]) -> list[int]:
    """SeedSequence(entropy).generate_state(4, uint64) as Python ints."""
    mask, mult_l, mult_r = MASK32, MIX_MULT_L, MIX_MULT_R
    words = [w for n in entropy for w in _words(n)]
    pool = []
    for k in range(POOL_SIZE):
        value = ((words[k] if k < len(words) else 0) ^ HASH_A[k]) * HASH_A[k + 1] & mask
        pool.append(value ^ value >> 16)
    for src, dst, xor, mult in _MIXES:
        value = (pool[src] ^ xor) * mult & mask
        r = (mult_l * pool[dst] - mult_r * (value ^ value >> 16)) & mask
        pool[dst] = r ^ r >> 16
    # Entropy longer than the pool mixes each further word into every pool
    # word, with the constants that follow the table's.
    hash_const = HASH_A[-1]
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            value = word ^ hash_const
            hash_const = hash_const * MULT_A & mask
            value = value * hash_const & mask
            r = (mult_l * pool[dst] - mult_r * (value ^ value >> 16)) & mask
            pool[dst] = r ^ r >> 16
    state = []
    for lo, xor_lo, mult_lo, hi, xor_hi, mult_hi in _OUTPUT:
        a = (pool[lo] ^ xor_lo) * mult_lo & mask
        b = (pool[hi] ^ xor_hi) * mult_hi & mask
        state.append(a ^ a >> 16 | (b ^ b >> 16) << 32)
    return state


class DeviceRng:
    """numpy's Generator over a PCG64 bit generator, scalar draws only."""

    __slots__ = ("state", "inc", "buffered")

    def __init__(self, state: list[int]):
        # PCG's seeding: from state 0, one step, add the seed state, one more step.
        self.inc = ((state[2] << 64 | state[3]) << 1 | 1) & MASK128
        self.state = ((self.inc + (state[0] << 64 | state[1])) * PCG_MULT + self.inc) & MASK128
        self.buffered: int | None = None  # the high half of a split 64-bit output

    def _next64(self) -> int:
        self.state = s = (self.state * PCG_MULT + self.inc) & MASK128
        x = (s >> 64 ^ s) & MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform int in [low, high), or in [0, low) when high is omitted."""
        if high is None and 1 < low <= 1 << 32:  # in range, span > 1: ties, exploration
            span, low = low, 0
        else:
            if high is None:
                low, high = 0, low
            if not INT64_MIN <= low < high <= INT64_END:
                raise ValueError(f"need {INT64_MIN} <= low < high <= {INT64_END}, got {low}, {high}")
            span = high - low  # numpy's rng is span - 1
            if span == 1:
                return low
            if span > 1 << 32:
                m = self._next64() * span
                if m & MASK64 < span:
                    threshold = (1 << 64) % span
                    while m & MASK64 < threshold:
                        m = self._next64() * span
                return low + (m >> 64)
        # One 32-bit word per try: the buffered high half of the last output,
        # else the low half of a new one (PCG64 stepped inline).
        while True:
            if (word := self.buffered) is None:
                self.state = s = (self.state * PCG_MULT + self.inc) & MASK128
                x = (s >> 64 ^ s) & MASK64
                rot = s >> 122
                x = (x >> rot | x << (64 - rot)) & MASK64
                self.buffered = x >> 32
                word = x & MASK32
            else:
                self.buffered = None
            m = word * span
            if m & MASK32 >= span or m & MASK32 >= (1 << 32) % span:
                return low + (m >> 32)


def device_rng(seed: int, device_index: int, stream: int) -> DeviceRng:
    """Independent per-device RNG stream; adding devices never reshuffles others."""
    return DeviceRng(seed_state([seed & MASK64, device_index, stream]))
