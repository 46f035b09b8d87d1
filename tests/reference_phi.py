"""The reference Phi: the whole image of a letter-count block.

qserre.oracle reads Phi only at a block's normal words.  This route
builds Phi's whole image, n! / prod m_i! words, by inserting one letter
at a time, and tests it for zero with the same X = 2^B encoding and the
same bound.  It reads no root data, so the tests use it to check the
normal-word walk, at the proven base and at the precheck's bases.
"""

from math import factorial


def full_image_kills(vec, content, braiding, bits=None) -> bool:
    """Is Phi(vec) = 0?  vec maps the words of one letter-count block to QRat.

    Phi is the quantum symmetrizer of the braiding chi, given as its
    table of s-exponents: Phi(a) = a and Phi(w a) = Phi(w) shuffled with a,
    where each letter u that a moves left past contributes chi(u, a).

    The test is exact and takes no gcd.  vec is cleared of denominators
    once, by the product L of its distinct denominators, so p_w = num_w
    times the other denominators is an integer polynomial in s.  Each is
    encoded as one integer, its value at X = 2^B: the value of num_w
    times the values of the other denominators.  That is evaluation, a
    ring map from Z[s] to Z, with no division, so it is exact even where
    a denominator vanishes at X.  Inserting a letter into words of
    length m multiplies every term by s^(m * lift) as well, where -lift
    is the least exponent in the table, so no exponent goes negative;
    the image is s^N Phi(p) for one N, which is zero exactly when
    Phi(vec) is, and the encoded image is its value at X.

    The bound: Phi(w) is a sum of n! monomials s^k * sigma(w) with
    coefficient 1, of which prod m_i! land on each word (the m_i are the
    block's letter counts).  So every coefficient of Phi(p) is at most
    M = sum_w |p_w|_1 * prod m_i! in absolute value, where |.|_1 is the
    sum of the absolute coefficients and |p_w|_1 <= |num_w|_1 times the
    |.|_1 of the other denominators.  With B = bit_length(M) + 1 every
    coefficient lies strictly between -X/2 and X/2, and such a
    polynomial vanishes at X only when it is zero: its lowest nonzero
    coefficient would have to be divisible by X.  The bound concerns
    Phi(p) alone, so a denominator may have a root at X, as s - 8 does
    when M is 2; no value is ever divided by.

    bits, when given, replaces B.  The encoded image is still the value
    at X = 2^bits of the polynomial s^N L Phi(vec), so a nonzero value
    proves Phi(vec) != 0.  A zero one proves nothing: X may be a root of
    that polynomial, for instance of a factor that L brings in.  That is
    the randomized precheck's test.
    """
    dens = {c.den: sum(map(abs, c.den)) for c in vec.values()}
    if bits is None:
        norms = 1
        for norm in dens.values():
            norms *= norm
        bound = sum(sum(map(abs, c.num)) * (norms // dens[c.den])
                    for c in vec.values())
        for m in content:
            bound *= factorial(m)
        bits = bound.bit_length() + 1

    def at_x(p):
        v = 0
        for c in reversed(p):
            v = (v << bits) + c
        return v

    # cofactor[d]: the product of the values of the other denominators
    values = [(d, at_x(d)) for d in dens]
    cofactor = {}
    left = right = 1
    for d, v in values:
        cofactor[d] = left
        left *= v
    for d, v in reversed(values):
        cofactor[d] *= right
        right *= v
    # a word is packed into one int, letter i in bits width*i.., so that
    # dict keys hash cheaply and an insertion is integer arithmetic
    width = max(1, (len(braiding) - 1).bit_length())
    mask = (1 << width) - 1
    packed = {}
    for w, c in vec.items():
        key = 0
        for i, letter in enumerate(w):
            key |= letter << (width * i)
        packed[key] = at_x(c.num) * cofactor[c.den]
    lift = max(0, -min(min(row) for row in braiding)) * bits
    # cols[a][u]: the shift, in bits, of chi(u, a)
    cols = [[row[a] * bits for row in braiding] for a in range(len(braiding))]
    # moving the inserted letter from place j to j - 1 adds (d - a) * step
    # to the packed word, d being the letter it passes, found at bit sh
    n = sum(content)
    moves = [[((1 << width * j) - (1 << width * (j - 1)), width * (j - 1))
              for j in range(length - 1, 0, -1)]
             for length in range(n + 1)]

    def symmetrize(vec, length):
        """The encoded image of vec, packed words of one length -> ints."""
        if length <= 1:
            return vec
        top = width * (length - 1)
        by_last = {}
        for w, v in vec.items():
            by_last.setdefault(w >> top, {})[w & ((1 << top) - 1)] = v
        out = {}
        base = (length - 1) * lift
        for a, sub in by_last.items():
            col, head = cols[a], a << top
            for u, v in symmetrize(sub, length - 1).items():
                if not v:
                    continue
                k = base
                t = u | head
                out[t] = out.get(t, 0) + (v << k)
                for step, sh in moves[length]:
                    d = (u >> sh) & mask
                    k += col[d]
                    t += (d - a) * step
                    out[t] = out.get(t, 0) + (v << k)
        return out

    return not any(symmetrize(packed, n).values())
