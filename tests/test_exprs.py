"""Expression grammar: parsing, evaluation, and the print round-trip."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import exprs, holo
from wcsg.exprs import BinOp, Exp, Imag, Mobius, Neg, Num, Pow, Var, parse, print_expr, to_holofn


class TestParseEval:
    @pytest.mark.parametrize(
        "src,z,expected",
        [
            ("-z", 0.5, -0.5),
            ("1 - z", 0.25, 0.75),
            ("z^2", 0.5j, -0.25),
            ("exp(z)", 0.0, 1.0),
            ("2 * z + 1", 0.5, 2.0),
            ("z / 2", 0.8, 0.4),
            ("i * z", 1.0 + 0.0j, 1j),
            ("z^(-2)", 0.5, 4.0),
        ],
    )
    def test_disc_values(self, src, z, expected):
        f = to_holofn(src)
        assert complex(f(z)) == pytest.approx(complex(expected), abs=1e-14)

    def test_cube_root_powers_on_real_line(self):
        f = to_holofn("x^(2/3)")
        assert float(np.real(f(8.0))) == pytest.approx(4.0, abs=1e-13)
        assert float(np.real(f(-8.0))) == pytest.approx(4.0, abs=1e-13)

    def test_mobius_helper(self):
        f = to_holofn("mobius(0.5)")
        assert complex(f(0.0)) == pytest.approx(0.5)
        assert complex(f(0.5)) == pytest.approx(0.0)

    def test_constant_expression_broadcasts(self):
        f = to_holofn("-1.0")
        out = f(np.zeros(5, dtype=complex))
        assert out.shape == (5,)
        assert np.all(out == -1.0)

    def test_rejects_unknown_identifier(self):
        with pytest.raises(ValueError):
            parse("sin(z)")

    def test_rejects_mixed_variables(self):
        with pytest.raises(ValueError):
            to_holofn("z + x")

    def test_rejects_general_fraction(self):
        with pytest.raises(ValueError):
            parse("x^(1/2)")

    def test_cube_root_rejected_on_disc(self):
        with pytest.raises(ValueError):
            to_holofn("z^(1/3)", exprs.UNIT_DISC)


class TestCompiled:
    def test_evaluation_reads_no_tree_node(self):
        reads = []

        class SpyBinOp(BinOp):
            def __getattribute__(self, name):
                reads.append(name)
                return super().__getattribute__(name)

        tree = SpyBinOp("+", Pow(Var("z"), 2, 1), Exp(Neg(SpyBinOp("*", Imag(), Var("z")))))
        fn = exprs.to_callable(tree)
        reads.clear()
        zs = np.array([0.5 + 0.25j, -0.3j])
        out = fn(zs)
        assert reads == []
        assert np.array_equal(out, zs ** 2 + np.exp(-(1j * zs)))

    def test_mobius_is_the_catalog_map(self):
        zs = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 13))
        for a in (0.3 + 0.4j, -0.5, 0.0):
            assert np.array_equal(to_holofn(f"mobius({a.real!r} + {a.imag!r} * i)")(zs),
                                  holo.mobius(a)(zs))

    def test_mobius_parameter_folds_only_its_own_operator(self):
        assert parse("mobius(0.5 + 0)") == Mobius(0.5, 0.0)

    def test_mobius_parameter_is_any_constant_the_compiler_folds(self):
        assert parse("mobius(exp(-1))") == Mobius(float(np.exp(-1.0)), 0.0)
        assert parse("mobius(0.125^(1/3) * i)") == Mobius(0.0, 0.5)
        with pytest.raises(ValueError, match="mobius parameter must be a constant"):
            parse("mobius(z)")

    @pytest.mark.parametrize("src", ["mobius(1/0)", "mobius(0^(-1))", "mobius(2^10000)",
                                     "z^1e999", "z^(1e999)", "1e999*z", "z + .5e400"])
    def test_arithmetic_faults_are_value_errors(self, src):
        with pytest.raises(ValueError):
            to_holofn(src)


    @pytest.mark.parametrize("src,named", [("1e308*1e308*z", "(1e+308 * 1e+308)"),
                                           ("z + 1/0", "(1.0 / 0.0)"),
                                           ("1/(1e308*1e308)*z", "(1e+308 * 1e+308)"),
                                           ("exp(1000)*z", "exp(1000.0)"),
                                           ("2^10000 - z", "(2.0^10000)")])
    def test_non_finite_constant_is_a_value_error_naming_it(self, src, named):
        with pytest.raises(ValueError, match=re.escape(f"constant {named} is not a finite")):
            to_holofn(src)

    def test_finite_constants_keep_their_printed_names(self):
        f = to_holofn("2*3*z + exp(2) - 1e308/10")
        assert f.name == "((((2.0 * 3.0) * z) + exp(2.0)) - (1e+308 / 10.0))"
        with np.errstate(all="raise"):
            assert f(0.5) == 3.0 + np.exp(2.0) - 1e307


class TestRoundTrip:
    @pytest.mark.parametrize(
        "src",
        ["-z", "1 - z", "z^2", "exp(z / 2)", "x^(2/3)", "mobius(0.3 + 0.4 * i)",
         "2.5 * z - 1.0 / (z + 3.0)", "z^(-3)"],
    )
    def test_parse_print_parse(self, src):
        ast = parse(src)
        assert parse(print_expr(ast)) == ast


def _asts(depth=3):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=9.0).map(lambda v: Num(round(v, 3))),
        st.just(Var("z")),
        st.just(Imag()),
        st.just(Mobius(0.25, -0.5)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children).map(lambda t: Neg(t[0])),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            st.tuples(children, st.integers(min_value=-3, max_value=5)).map(
                lambda t: Pow(t[0], t[1], 1)
            ),
            st.tuples(children).map(lambda t: Exp(t[0])),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_asts())
def test_print_parse_identity_property(ast):
    assert parse(print_expr(ast)) == ast


# Sources nested n levels deep, one per kind of nesting.
_NESTED = {
    "sum": lambda n: "z" + "+1" * n,
    "parentheses": lambda n: "(" * n + "z" + ")" * n,
    "minus": lambda n: "-" * n + "z",
    "exp": lambda n: "exp(" * n + "z" + ")" * n,
    "minus-over-mobius": lambda n: "-" * (n - 1) + "mobius(0.5)",
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_depth_limit_is_accepted_and_one_more_level_rejected(kind):
    src = _NESTED[kind](exprs.MAX_DEPTH)
    f = to_holofn(src)
    with np.errstate(all="ignore"):  # 100 nested exp overflow; only the recursion is tested
        f(np.array([0.1 + 0.1j]))
    assert parse(f.name) == parse(src)  # the printed form nests no deeper than the tree
    assert exprs.variables(parse(src)) <= {"z"}
    with pytest.raises(ValueError, match=f"nests deeper than {exprs.MAX_DEPTH} levels"):
        parse(_NESTED[kind](exprs.MAX_DEPTH + 1))
