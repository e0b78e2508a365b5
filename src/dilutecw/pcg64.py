"""numpy's seeding of ``PCG64(seed)``, and the spins ``integers`` draws from it.

A chain seeds two streams per replica from 64-bit integers: its initial
spins and its dynamics.  Both are numpy's ``PCG64``, seeded through
``SeedSequence``, whose streams NEP 19 keeps fixed across numpy releases.
This module reproduces the seeding in plain integer arithmetic, so seeding a
chain imports no ``numpy.random``, and fixes the spin rule in this package
rather than in numpy's ``Generator.integers``, which NEP 19 leaves free to
change.

* ``seed_row(seed)`` is the state of ``PCG64(seed)`` as the sweep kernel holds
  it (``_twins.rng_row``): state lo, state hi, inc lo, inc hi.
* ``packed_spins(seed, n)`` is ``default_rng(seed).integers(0, 2, size=n,
  dtype=np.uint8)`` packed eight spins to a byte, spin k in bit k % 8 of byte
  k // 8, the bits past spin n - 1 clear.  For a range of two, Lemire's
  method never rejects and keeps the top bit of each byte, and numpy takes
  the bytes of each 32-bit half of a 64-bit output low byte first.  So spin k
  is bit 7 of byte k of the stream's outputs, each written little-endian, and
  each output gives one packed byte.

Neither imports numpy, which stays the oracle: the tests compare both
functions with it.
"""

from __future__ import annotations

MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# Bit 0 of each byte of a word, and the multiply that gathers those eight
# bits into bits 56 .. 63, lane i to bit 56 + i.
_LANES = 0x0101010101010101
_GATHER = 0x0102040810204080

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), pool of 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, np.uint32)`` for 0 <= seed <
    2^128, whose entropy fits the pool of four 32-bit words.  numpy fills the
    words past the seed's last with 0, as the seed's own high words read."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(seed >> 32 * i & _MASK32) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _seeded(seed: int) -> tuple[int, int]:
    """(state, inc) of ``PCG64(seed)``: ``pcg64_set_seed`` on the seed
    sequence's four 64-bit words, the first two the initial state and the
    last two the stream, each high word first."""
    w = _seed_words(seed)
    u = [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & MASK128
    return ((inc + (u[0] << 64 | u[1])) * MULT + inc) & MASK128, inc


def seed_row(seed: int) -> list[int]:
    """The kernel rng row of ``PCG64(seed)``: state lo, state hi, inc lo, inc hi."""
    state, inc = _seeded(seed)
    return [state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]


def packed_spins(seed: int, n: int) -> bytes:
    """``default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)`` packed, spin
    k in bit k % 8 of byte k // 8: per XSL-RR output of the stream, its eight
    bytes' top bits gathered into one byte by a shift, a mask and a multiply."""
    state, inc = _seeded(seed)
    out = bytearray()
    for _ in range((n + 7) // 8):
        state = (state * MULT + inc) & MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 7 & _LANES) * _GATHER >> 56 & 0xFF)
    if n % 8:
        out[-1] &= (1 << n % 8) - 1
    return bytes(out)
