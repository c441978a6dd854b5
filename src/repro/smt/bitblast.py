"""Bit-blasting QF_BV terms to CNF.

Each bit-vector term maps to a list of SAT literals, LSB first.  Circuits are
the standard ones — ripple-carry adders, shift-add multipliers, barrel
shifters, borrow-chain comparators, restoring division — built on the gate
cache of :class:`~repro.smt.cnf.GateBuilder`, so shared subterms share
circuitry.  Adder cells are ``(XOR3, MAJ)`` pairs, and each comparator
step is one ``MAJ``: the borrow out of ``x - y`` at a bit is the majority
of ``~x``, ``y`` and the borrow in.  The per-blaster memo tables
(``_bool_cache``, ``_bits_cache``) are keyed on term identity —
hash-consing makes that structural — and each DAG node is walked exactly
once per blast.

Array terms must have been eliminated (:mod:`repro.smt.arrays`) before
blasting; encountering one here is a programming error.
"""

from __future__ import annotations

from .cnf import GateBuilder
from .sorts import ArraySort
from .terms import Kind, Term
from ..errors import SolverError

__all__ = ["BitBlaster"]


class BitBlaster:
    """Translates Bool terms to literals and BV terms to bit lists.

    Every circuit is built directly on the query's own gate cache, so
    sibling circuits share gates.
    """

    def __init__(self, builder: GateBuilder | None = None) -> None:
        self.gb = builder if builder is not None else GateBuilder()
        # Backends that track assignments (SATSolver) expose root-forced
        # literals; treating those as constants folds circuits at build
        # time.
        self._root_value = getattr(self.gb.sat, "root_value", None)
        self._bool_cache: dict[Term, int] = {}
        self._bits_cache: dict[Term, list[int]] = {}
        self.var_bits: dict[Term, list[int]] = {}
        self.bool_vars: dict[Term, int] = {}

    def _root_subst(self, bits: list[int]) -> list[int]:
        """Replace literals forced at decision level 0 with the builder's
        constant literals.  Sound because root facts hold in every model of
        the instance; the gate folds then shrink the circuit."""
        rv = self._root_value
        if rv is None:
            return bits
        gb = self.gb
        out = bits
        for i, l in enumerate(bits):
            v = rv(l)
            if v < 2:
                if out is bits:
                    out = list(bits)
                out[i] = gb.true_lit if v == 0 else gb.false_lit
        return out

    def _operand_bits(self, t: Term) -> tuple[list[int], list[int]]:
        """The bits of ``t``'s two operands, root-forced literals replaced
        by the builder constants (:meth:`_root_subst`), so the circuit
        built on them folds."""
        a, b = t.args
        return (self._root_subst(self.bits_of(a)),
                self._root_subst(self.bits_of(b)))

    # ------------------------------------------------------------- interface

    def assert_term(self, term: Term) -> None:
        """Assert a Bool term, splitting top-level conjunctions into separate
        unit assertions (better propagation than one big AND gate)."""
        if term.kind == Kind.AND:
            for arg in term.args:
                self.assert_term(arg)
            return
        self.gb.assert_lit(self.lit_of(term))

    def lit_of(self, term: Term) -> int:
        """The literal representing a Bool-sorted term."""
        hit = self._bool_cache.get(term)
        if hit is not None:
            return hit
        lit = self._blast_bool(term)
        self._bool_cache[term] = lit
        return lit

    def bits_of(self, term: Term) -> list[int]:
        """The literal vector (LSB first) representing a BV-sorted term."""
        hit = self._bits_cache.get(term)
        if hit is not None:
            return hit
        if isinstance(term.sort, ArraySort):
            raise SolverError(
                "array term reached the bit-blaster; run eliminate_arrays first")
        bits = self._blast_bv(term)
        assert len(bits) == term.sort.width
        self._bits_cache[term] = bits
        return bits

    # ------------------------------------------------------------------ bool

    def _blast_bool(self, t: Term) -> int:
        gb = self.gb
        k = t.kind
        if k == Kind.TRUE:
            return gb.true_lit
        if k == Kind.FALSE:
            return gb.false_lit
        if k == Kind.VAR:
            lit = gb.new_lit()
            self.bool_vars[t] = lit
            return lit
        if k == Kind.NOT:
            return self.lit_of(t.args[0]) ^ 1
        if k == Kind.AND:
            return gb.AND([self.lit_of(a) for a in t.args])
        if k == Kind.OR:
            return gb.OR([self.lit_of(a) for a in t.args])
        if k == Kind.XOR:
            return gb.XOR(self.lit_of(t.args[0]), self.lit_of(t.args[1]))
        if k == Kind.IMPLIES:
            return gb.OR([self.lit_of(t.args[0]) ^ 1, self.lit_of(t.args[1])])
        if k == Kind.ITE:
            return gb.ITE(self.lit_of(t.args[0]),
                          self.lit_of(t.args[1]),
                          self.lit_of(t.args[2]))
        if k == Kind.EQ:
            a, b = t.args
            if a.sort.is_bool():
                return gb.IFF(self.lit_of(a), self.lit_of(b))
            if isinstance(a.sort, ArraySort):
                raise SolverError("array extensionality is not supported")
            xs, ys = self._operand_bits(t)
            return gb.AND([gb.IFF(x, y) for x, y in zip(xs, ys)])
        if k == Kind.BVULT:
            xs, ys = self._operand_bits(t)
            return self._ult(xs, ys)
        if k == Kind.BVULE:
            xs, ys = self._operand_bits(t)
            return self._ult(ys, xs) ^ 1
        if k == Kind.BVSLT:
            xs, ys = self._operand_bits(t)
            return self._slt(xs, ys)
        if k == Kind.BVSLE:
            xs, ys = self._operand_bits(t)
            return self._slt(ys, xs) ^ 1
        raise SolverError(f"cannot bit-blast Bool term kind {k.name}")

    # -------------------------------------------------------------------- bv

    def _blast_bv(self, t: Term) -> list[int]:
        gb = self.gb
        k = t.kind
        w = t.sort.width
        if k == Kind.BVCONST:
            v = t.payload
            return [gb.lit_const(bool((v >> i) & 1)) for i in range(w)]
        if k == Kind.VAR:
            bits = [gb.new_lit() for _ in range(w)]
            self.var_bits[t] = bits
            return bits
        if k == Kind.ITE:
            c = self.lit_of(t.args[0])
            xs, ys = self.bits_of(t.args[1]), self.bits_of(t.args[2])
            return [gb.ITE(c, x, y) for x, y in zip(xs, ys)]
        if k == Kind.BVNOT:
            return [b ^ 1 for b in self.bits_of(t.args[0])]
        if k == Kind.BVAND:
            xs, ys = (self.bits_of(a) for a in t.args)
            return [gb.AND([x, y]) for x, y in zip(xs, ys)]
        if k == Kind.BVOR:
            xs, ys = (self.bits_of(a) for a in t.args)
            return [gb.OR([x, y]) for x, y in zip(xs, ys)]
        if k == Kind.BVXOR:
            xs, ys = (self.bits_of(a) for a in t.args)
            return [gb.XOR(x, y) for x, y in zip(xs, ys)]
        if k == Kind.BVADD:
            xs = self.bits_of(t.args[0])
            if t.args[0] is t.args[1]:  # x + x == x << 1: pure wiring
                return [gb.false_lit, *xs[:-1]]
            xs, ys = self._operand_bits(t)
            return self._adder(xs, ys, gb.false_lit)
        if k == Kind.BVSUB:
            xs, ys = self._operand_bits(t)
            return self._adder(xs, [b ^ 1 for b in ys], gb.true_lit)
        if k == Kind.BVNEG:
            xs = [b ^ 1 for b in self.bits_of(t.args[0])]
            zero = [gb.false_lit] * w
            return self._adder(zero, xs, gb.true_lit)
        if k == Kind.BVMUL:
            xs, ys = self._operand_bits(t)
            vx, vy = self._const_value(xs), self._const_value(ys)
            if vy is None and vx is not None:
                xs, ys, vy = ys, xs, vx
            if vy is not None:
                return self._mul_const(xs, vy)
            # Use the side with more known-zero bits as the row selector —
            # every known-zero row is skipped entirely.
            zx = sum(1 for b in xs if gb.is_const(b) is False)
            zy = sum(1 for b in ys if gb.is_const(b) is False)
            if zx > zy:
                xs, ys = ys, xs
            return self._multiplier(xs, ys)
        if k in (Kind.BVUDIV, Kind.BVUREM):
            q, r = self._divider(*self._operand_bits(t))
            return q if k == Kind.BVUDIV else r
        if k == Kind.BVSHL:
            return self._shifter(t, left=True, arith=False)
        if k == Kind.BVLSHR:
            return self._shifter(t, left=False, arith=False)
        if k == Kind.BVASHR:
            return self._shifter(t, left=False, arith=True)
        if k == Kind.CONCAT:
            hi, lo = t.args
            return [*self.bits_of(lo), *self.bits_of(hi)]
        if k == Kind.EXTRACT:
            hi, lo = t.payload
            return self.bits_of(t.args[0])[lo:hi + 1]
        if k == Kind.ZEXT:
            xs = self.bits_of(t.args[0])
            return [*xs, *([gb.false_lit] * t.payload)]
        if k == Kind.SEXT:
            xs = self.bits_of(t.args[0])
            return [*xs, *([xs[-1]] * t.payload)]
        raise SolverError(f"cannot bit-blast BV term kind {k.name}")

    # -------------------------------------------------------------- circuits

    def _const_value(self, bits: list[int]) -> int | None:
        """The integer value of an all-constant bit vector, else ``None``."""
        gb = self.gb
        v = 0
        for i, b in enumerate(bits):
            c = gb.is_const(b)
            if c is None:
                return None
            if c:
                v |= 1 << i
        return v

    def _mul_const(self, xs: list[int], v: int) -> list[int]:
        """Multiply by a known constant: one wired shift per set bit,
        summed with ripple adders.  A power-of-two factor costs zero gates;
        the general case costs ``popcount(v) - 1`` adders instead of a full
        shift-add multiplier."""
        gb = self.gb
        w = len(xs)
        v &= (1 << w) - 1
        acc: list[int] | None = None
        for i in range(w):
            if not (v >> i) & 1:
                continue
            row = [gb.false_lit] * i + xs[: w - i]
            acc = row if acc is None else self._adder(acc, row, gb.false_lit)
        return acc if acc is not None else [gb.false_lit] * w

    def _adder(self, xs: list[int], ys: list[int], carry: int) -> list[int]:
        out = []
        for x, y in zip(xs, ys):
            s, carry = self.gb.full_adder(x, y, carry)
            out.append(s)
        return out

    def _multiplier(self, xs: list[int], ys: list[int]) -> list[int]:
        """Shift-add multiplier, accumulating partial products LSB-up.

        Width-w product of width-w inputs (truncating, as bvmul requires):
        row i contributes ``xs & ys[i]`` shifted left by i, only the low
        ``w - i`` bits of which can affect the result.
        """
        gb = self.gb
        w = len(xs)
        acc = [gb.AND([x, ys[0]]) for x in xs]
        for i in range(1, w):
            yi = ys[i]
            if gb.is_const(yi) is False:
                continue
            row = [gb.AND([x, yi]) for x in xs[: w - i]]
            carry = gb.false_lit
            for j, r in enumerate(row):
                s, carry = gb.full_adder(acc[i + j], r, carry)
                acc[i + j] = s
        return acc

    def _divider(self, xs: list[int], ys: list[int]) -> tuple[list[int], list[int]]:
        """Restoring long division.  Handles the SMT-LIB convention for a zero
        divisor (``x udiv 0 = all-ones``, ``x urem 0 = x``) with output muxes.
        """
        gb = self.gb
        w = len(xs)
        rem = [gb.false_lit] * w
        quo = [gb.false_lit] * w
        for i in reversed(range(w)):
            rem = [xs[i], *rem[:-1]]  # shift in the next dividend bit
            # ge = (rem >= ys)
            ge = self._ult(rem, ys) ^ 1
            # rem = ge ? rem - ys : rem
            diff = self._adder(rem, [y ^ 1 for y in ys], gb.true_lit)
            rem = [gb.ITE(ge, d, r) for d, r in zip(diff, rem)]
            quo[i] = ge
        zero = gb.AND([y ^ 1 for y in ys])
        quo = [gb.ITE(zero, gb.true_lit, q) for q in quo]
        rem = [gb.ITE(zero, x, r) for x, r in zip(xs, rem)]
        return quo, rem

    def _shifter(self, t: Term, left: bool, arith: bool) -> list[int]:
        gb = self.gb
        xs = self.bits_of(t.args[0])
        w = len(xs)
        amount = self._root_subst(self.bits_of(t.args[1]))
        fill = xs[-1] if arith else gb.false_lit
        av = self._const_value(amount)
        if av is not None:  # constant amount: the shift is pure wiring
            if av >= w:
                return [fill] * w if arith else [gb.false_lit] * w
            if left:
                return [gb.false_lit] * av + xs[: w - av]
            return xs[av:] + [fill] * av
        return self._barrel(self._root_subst(xs), amount, left, arith)

    def _barrel(self, xs: list[int], amount: list[int],
                left: bool, arith: bool) -> list[int]:
        gb = self.gb
        w = len(xs)
        fill = xs[-1] if arith else gb.false_lit
        bits = xs
        stage = 0
        while (1 << stage) < w:
            sel = amount[stage]
            shift = 1 << stage
            if left:
                shifted = [gb.false_lit] * shift + bits[: w - shift]
            else:
                shifted = bits[shift:] + [fill] * shift
            bits = [gb.ITE(sel, s, b) for s, b in zip(shifted, bits)]
            stage += 1
        # If any amount bit at position >= stage is set (or the represented
        # amount is >= w), the result is all-fill.
        over_bits = amount[stage:]
        if (1 << stage) != w:
            # w is not a power of two: also compare the low bits against w.
            low = amount[:stage]
            w_bits = [gb.lit_const(bool((w >> i) & 1)) for i in range(stage)]
            over_bits = [*over_bits, self._ult(low, w_bits) ^ 1]
        if over_bits:
            over = gb.OR(over_bits)
            overflow_fill = fill if arith else gb.false_lit
            bits = [gb.ITE(over, overflow_fill, b) for b in bits]
        return bits

    def _ult(self, xs: list[int], ys: list[int]) -> int:
        """Unsigned less-than via a borrow chain (LSB up)."""
        gb = self.gb
        borrow = gb.false_lit
        for x, y in zip(xs, ys):
            # The borrow out of x - y: at least two of ~x, y, borrow.
            borrow = gb.MAJ(x ^ 1, y, borrow)
        return borrow

    def _slt(self, xs: list[int], ys: list[int]) -> int:
        """Signed less-than: flip the sign bits and compare unsigned."""
        xs2 = [*xs[:-1], xs[-1] ^ 1]
        ys2 = [*ys[:-1], ys[-1] ^ 1]
        return self._ult(xs2, ys2)
