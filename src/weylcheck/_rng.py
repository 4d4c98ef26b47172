"""numpy.random.default_rng(seed).uniform(-1, 1, count), bit for bit, on
the standard library alone.

default_rng(seed) seeds a PCG64 generator (O'Neill, "PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905) through numpy's SeedSequence: the seed's
32-bit words are hashmixed into a 4-word pool, and the pool generates the
8 words of 128-bit state and increment that PCG64's set_seed takes.  Each
draw is one LCG step and the XSL-RR output, x; the double is
(x >> 11) * 2**-53, scaled to [-1, 1) as -1 + 2 * u.  Both algorithms are
fixed by numpy's stream-compatibility policy, so the port needs no
numpy.random, which would load hashlib and OpenSSL with it.
"""

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
POOL = 4


def _seed_state(seed):
    """SeedSequence(seed).generate_state(8) as 32-bit words."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    words = [(seed >> s) & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    k = 0x43B0D7E5

    def hashmix(v):
        nonlocal k
        v ^= k
        k = k * 0x931E8875 & M32
        v = v * k & M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL)]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL:]:
        for dst in range(POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    k = 0x8B51F9DD
    state = []
    for i in range(8):
        v = pool[i % POOL] ^ k
        k = k * 0x58F38DED & M32
        v = v * k & M32
        state.append(v ^ v >> 16)
    return state


def uniform(seed, count):
    """The first count doubles of default_rng(seed).uniform(-1, 1)."""
    w = _seed_state(seed)
    # uint64 words little-endian from pairs; set_seed reads (high, low) pairs
    u64 = [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & M128
    # set_seed: from state 0, step, add the seed, step
    state = ((inc + (u64[0] << 64 | u64[1])) * PCG_MULT + inc) & M128
    out = []
    for _ in range(count):
        state = (state * PCG_MULT + inc) & M128
        x = ((state >> 64) ^ state) & M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & M64
        out.append(-1.0 + 2.0 * ((x >> 11) * 2.0**-53))
    return out
