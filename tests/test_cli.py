"""Command line interface: golden outputs, exit codes, JSON determinism."""

import argparse
import ast
import hashlib
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cuspdiff
from cuspdiff import cli, cuspops
from cuspdiff.cli import main
from cuspdiff.cuspops import (StructureRelation, delta_op, generating_set,
                              membership)
from cuspdiff.exactpoly import BasePoly
from cuspdiff.exprparse import parse_expression
from cuspdiff.gwa import Embedding, render_gwa
from cuspdiff.skewlaurent import LaurentOp, graded_divisor, render_op


_PRIME_31 = "1000000000000000000000000000057"


def run_with_stderr(capsys, *args):
    """Invoke the CLI; returns (exit code, stdout, stderr)."""
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *args):
    """Invoke the CLI; returns (exit code, stdout)."""
    return run_with_stderr(capsys, *args)[:2]


class TestMul:
    def test_product(self, capsys):
        code, out = run(capsys, "mul", "--m", "2", "delta(-1)*delta(1)")
        assert code == 0
        assert out.strip() == "(h^3-3*h^2+2*h)"

    def test_json(self, capsys):
        code, out = run(capsys, "mul", "--m", "2", "--json", "h*x^2")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["result"]["components"]

    def test_parse_failure_is_usage_error(self, capsys):
        code, _ = run(capsys, "mul", "--m", "2", "h+$")
        assert code == 2


def _capped_member(m, algebra, expr):
    """Run `member` as a child whose address space is capped at 256 MB;
    returns the finished process and its wall time."""
    src = Path(cuspdiff.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cuspdiff", "member", "--m", m, "--algebra",
         algebra, expr],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=limit_address_space)
    return proc, time.perf_counter() - start


class TestMember:
    def test_partial_is_outside_for_width_three(self, capsys):
        code, out = run(capsys, "member", "--m", "3", "d(1)")
        assert code == 1
        assert out.strip() == "member of the operator ring: false"

    def test_delta_is_inside(self, capsys):
        code, out = run(capsys, "member", "--m", "3", "delta(-2)")
        assert code == 0
        assert "true" in out

    @pytest.mark.parametrize("k", [50, 200])
    def test_power_is_walked_once(self, monkeypatch, capsys, k):
        # the parser reads Y^k as the embedding's image, which it keeps, so
        # the pullback divides the coefficient by itself: k - 1 products
        # for the walk and a few more, where walking twice took about 2k
        cuspops._canonical.cache_clear()
        cuspops._canonical((2,), "calA")  # the relations, proved once
        calls = []
        real = BasePoly.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(BasePoly, "__mul__", counting)
        code, out = run(capsys, "member", "--m", "2", "--algebra", "calA",
                        "--json", "Y^%d" % k)
        monkeypatch.undo()
        assert (code, json.loads(out)["member"]) == (0, True)
        assert len(calls) <= k + 10

    def test_deep_power_in_image(self):
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdiff", "member", "--m", "2",
             "--algebra", "calA", "--json", "X^1100"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["member"] is True

    @pytest.mark.parametrize("widths", ["1", "1,2"])
    def test_bbA_at_width_one_is_usage_error(self, widths):
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdiff", "member", "--m", widths,
             "--algebra", "bbA", "x"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "the degree one pair needs width >= 2" in proc.stderr

    def test_constant_generator_power_is_read_off_its_exponent(self):
        # calA's X = x^2 has coefficient 1, so the pullback forms X^k in
        # closed form; a walk through the powers, caching each, took
        # seconds and hundreds of MB here
        proc, elapsed = _capped_member("2", "calA", "X^3000000")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "member of the calA image: true\n"
        assert elapsed < 2.0

    @pytest.mark.parametrize("m, algebra, expr, where", [
        ("1", "weyl", "x^-1600", "the Weyl algebra"),
        ("2", "calA", "x^-1600", "the calA image"),
        ("2", "bbA", "x^-800", "the bbA image")])
    def test_degree_rules_a_power_out_unformed(self, m, algebra, expr,
                                               where):
        # the coefficient 1 cannot be a multiple of Y^k's, which has degree
        # 1600 (800 for bbA), so the pullback forms no power of Y; walking
        # them all and keeping each took over a second and 0.5 to 1 GB
        proc, elapsed = _capped_member(m, algebra, expr)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout == "member of %s: false\n" % where
        assert elapsed < 2.0

    def test_walk_keeps_only_its_end(self):
        # delta(-1000) at width 1 is the image of Y^1000, walked in 999
        # products; keeping every step took about 270 MB
        proc, _ = _capped_member("1", "weyl", "delta(-1000)")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "member of the Weyl algebra: true\n"

    def test_weyl_answer_is_width_one_membership(self):
        # the weyl answer is a pullback along the weyl embedding; the
        # operator ring at widths (1, ..., 1) is the Weyl algebra, so
        # membership there is an independent oracle
        rng = random.Random(39)
        members = 0
        for _ in range(3000):
            n = rng.randint(1, 2)
            comps = {}
            for _ in range(rng.randint(1, 3)):
                alpha = tuple(rng.randint(-3, 3) for _ in range(n))
                coeff = BasePoly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                                     rng.randint(-3, 3) or 1
                                     for _ in range(rng.randint(1, 2))})
                if rng.random() < 0.5:
                    coeff = coeff * graded_divisor((1,) * n, alpha)
                comps[alpha] = coeff
            u = LaurentOp(n, comps)
            widths = ",".join(str(rng.randint(1, 3)) for _ in range(n))
            code, payload, lines = cli.cmd_member(argparse.Namespace(
                m=widths, algebra="weyl", expr=render_op(u)))
            expected = membership(u, (1,) * n)
            assert (code, payload["member"]) == (0 if expected else 1,
                                                 expected), render_op(u)
            assert lines == ["member of the Weyl algebra: %s"
                             % ("true" if expected else "false")]
            members += expected
        assert 600 < members < 2400

    def test_weyl_context(self, capsys):
        code, out = run(capsys, "member", "--m", "1", "--algebra", "weyl",
                        "x^-1")
        assert code == 1

    def test_gwa_context_uses_pullback(self, capsys):
        code, _ = run(capsys, "member", "--m", "2", "--algebra", "calA",
                      "x^2")
        assert code == 0
        code, _ = run(capsys, "member", "--m", "2", "--algebra", "calA", "x")
        assert code == 1


class TestPhiDelta:
    def test_phi_lines(self, capsys):
        code, out = run(capsys, "phi", "--m", "2", "--", "-1", "1", "2")
        assert code == 0
        assert out.splitlines() == ["phi(2, -1) = h^2-2*h",
                                    "phi(2, 1) = h-2",
                                    "phi(2, 2) = 1"]

    def test_delta_lines(self, capsys):
        code, out = run(capsys, "delta", "--m", "2", "--", "-2", "2")
        assert code == 0
        assert out.splitlines() == ["delta(-2) = (h^2-h-2) * x^-2",
                                    "delta(2) = (1) * x^2"]

    def test_delta_with_factor_spec(self, capsys):
        code, out = run(capsys, "delta", "--m", "2,3", "1@2")
        assert code == 0
        assert "x2" in out


class TestDecomposeAct:
    def test_decompose(self, capsys):
        code, out = run(capsys, "decompose", "--m", "2",
                        "h*delta(1)+3*delta(-2)")
        assert code == 0
        assert out.splitlines() == ["1: h", "-2: 3"]

    def test_decompose_outsider(self, capsys):
        code, out = run(capsys, "decompose", "--m", "2", "x")
        assert code == 1
        assert out == "not in the operator ring: h-2 does not divide 1\n"
        code, out = run(capsys, "decompose", "--m", "2", "--json", "x")
        assert code == 1
        assert json.loads(out)["error"] == "h-2 does not divide 1"
        assert "BasePoly(" not in out

    def test_act(self, capsys):
        code, out = run(capsys, "act", "--m", "2", "d(1)", "x^2")
        assert code == 0
        assert out.strip() == "2*x"

    def test_act_quotient(self, capsys):
        code, out = run(capsys, "act", "--m", "2", "--quotient",
                        "delta(-2)", "x")
        assert code == 0
        assert out.strip() == "-2*x^-1"

    def test_act_prints_integral_coefficients_bare(self, capsys):
        # delta(1)*h = (h-2)(h-1) x kills x^-1 and x^0 and sends 1/2*x^3 to
        # 3/2 * 1/2 * 3 * 4 = 9 at x^4: printed as "9", never "9/1"
        code, out = run(capsys, "act", "--m", "2", "--json",
                        "3/2*delta(1)*h", "1/2*x^3 - 2*x^-1 + 4/3")
        assert code == 0
        assert json.loads(out)["result"] == {"4": "9"}
        assert '"9/1"' not in out

    def test_act_quotient_fraction_vector(self, capsys):
        # delta(2)*h = (h-2)(h-3) x^2; only x^-3 lands outside {0} u [3, inf)
        code, out = run(capsys, "act", "--m", "3", "--quotient",
                        "delta(2)*h", "x - 2/5*x^-3 + x^2")
        assert code == 0
        assert out == "-12/5*x^-1\n"

    def test_act_quotient_unstable(self, capsys):
        code, _ = run(capsys, "act", "--m", "2", "--quotient", "x", "x")
        assert code == 1
        code, out = run(capsys, "act", "--m", "2", "--quotient", "d(1)", "x")
        assert code == 1
        assert out == "operator is outside the ring; quotient action undefined\n"
        code, out = run(capsys, "act", "--m", "2", "--quotient", "--json",
                        "d(1)", "x")
        assert code == 1
        assert json.loads(out)["error"] == ("operator is outside the ring; "
                                            "quotient action undefined")


class TestStability:
    def test_default_generators(self, capsys):
        code, out = run(capsys, "stability", "--m", "2", "--window", "8")
        assert code == 0
        assert out.strip() == "stable under 7 generators in window 8: true"

    def test_extra_generator_breaks_it(self, capsys):
        code, out = run(capsys, "stability", "--m", "2", "--window", "8",
                        "--gens", "x")
        assert code == 1
        assert "false" in out

    def test_window_below_the_bound_is_refused(self, capsys):
        # the partial sends x^5 to 5x^4, outside A(5): window 2 lies below
        # the bound 5, where the failure is
        argv = ("stability", "--m", "5", "--gens", "h*x^-1", "--window")
        code, out, err = run_with_stderr(capsys, *argv, "2")
        assert (code, out) == (2, "")
        assert "window 2 below the sweep bound 5" in err
        code, out = run(capsys, *argv, "5")
        assert (code, out) == (
            1, "stable under 1 generators in window 5: false\n")

    @pytest.mark.parametrize("m, window", [
        ("1", 12), ("2", 12), ("4", 12), ("5", 13), ("7", 19), ("2,3", 12),
        ("4,4", 12), ("5,2", 14)])
    def test_default_window_reaches_the_canonical_bound(self, capsys, m,
                                                        window):
        # the default window is 12 wherever the canonical generators' bound
        # (3m - 2 at rank one) allows it, as it always was, and that bound
        # past it, with or without --gens; a window set below the bound is
        # still refused
        gens = len(generating_set([int(w) for w in m.split(",")]))
        assert run(capsys, "stability", "--m", m) == (
            0, "stable under %d generators in window %d: true\n"
            % (gens, window))
        assert run(capsys, "stability", "--m", m, "--gens", "h") == (
            0, "stable under 1 generators in window %d: true\n" % window)
        if window > 12:
            code, out, err = run_with_stderr(capsys, "stability", "--m", m,
                                             "--window", "12")
            assert (code, out) == (2, "")
            assert "window 12 below the sweep bound %d" % window in err


class TestRelationsCheck:
    def test_clean_sweep(self, capsys):
        code, out = run(capsys, "relations-check", "--m", "2")
        assert code == 0
        assert out.strip() == ("checked 36 relation pairs, "
                               "0 cross-factor commutations: all hold")

    def test_rank_two_counts_commutations(self, capsys):
        code, out = run(capsys, "relations-check", "--m", "2,2")
        assert code == 0
        assert "commutations" in out
        assert code == 0

    def test_corrupt_reports_witness(self, capsys):
        code, out = run(capsys, "relations-check", "--m", "2", "--corrupt")
        assert code == 1
        assert out.splitlines()[0] == ("mismatch at m=2, (i, j)=(2, -3), "
                                       "case |i+j| < 2m")

    def test_json_deterministic(self, capsys):
        _, first = run(capsys, "relations-check", "--m", "2", "--json")
        _, second = run(capsys, "relations-check", "--m", "2", "--json")
        assert first == second
        data = json.loads(first)
        assert data["schema"] == 1
        assert data["checked"] == 36
        assert data["failures"] == []

    @pytest.mark.parametrize("m, checked, commuted", [
        ("2,3", 136, 77), ("2,2,3", 172, 203)])
    def test_rank_two_and_three_json_pinned(self, capsys, m, checked, commuted):
        # factor f brings h_f and delta(+-k e_f) for k < 2 m_f, so each pair
        # of factors commutes (4 m_f - 1)(4 m_g - 1) generator pairs
        code, out = run(capsys, "relations-check", "--m", m, "--json")
        assert code == 0
        assert out == (
            '{"checked": %d, "command": "relations-check", '
            '"commutation_checked": %d, "commutation_failures": [], '
            '"corrupt": false, "failures": [], "schema": 1}\n'
            % (checked, commuted))

    def test_commutation_failure_names_the_factors(self, capsys, monkeypatch):
        # factor 2 brings x1 alone, which fails to commute with h1, delta(1)
        # and the three deltas of negative degree of factor 1 at width 2
        x1 = LaurentOp.monomial(2, (1, 0), BasePoly.one(2))
        real = cli.factor_generators
        monkeypatch.setattr(cli, "factor_generators", lambda shape, f: (
            real(shape, f) if f == 0 else [x1]))
        # each failure names its pair, factor 1's generator first
        failing = ["(h1)", "(h1-2) * x1", "(h1^2-2*h1) * x1^-1",
                   "(h1^2-h1-2) * x1^-2", "(h1^3-4*h1) * x1^-3"]
        code, out = run(capsys, "relations-check", "--m", "2,3")
        assert code == 1
        assert out.splitlines() == [
            "factors 1 and 2 fail to commute: u = %s, v = (1) * x1" % u
            for u in failing] + [
            "checked 136 relation pairs, 7 cross-factor commutations: "
            "failures above"]
        code, out = run(capsys, "relations-check", "--m", "2,3", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["commutation_checked"] == 7
        assert data["commutation_failures"] == [
            {"factors": [1, 2], "u": u, "v": "(1) * x1"} for u in failing]
        assert data["failures"] == []

    @pytest.mark.parametrize("fault", ["coefficient", "residual"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_wrong_table_entry_is_named(self, capsys, monkeypatch, m, fault):
        # the table, not only the product, is checked: one seeded relation
        # gains a factor h - 1 in its coefficient or delta_m in its residual
        rng = random.Random(31 + m)
        idxs = [k for k in range(-(2 * m - 1), 2 * m) if k]
        bad = (m, rng.choice(idxs), rng.choice(idxs))
        real = cli.structure_constant
        h = BasePoly.variable(1, 0)

        def table(w, i, j):
            rel = real(w, i, j)
            if (w, i, j) != bad:
                return rel
            if fault == "coefficient":
                return StructureRelation(w, i, j, rel.case,
                                         rel.coefficient * (h - 1), rel.residual)
            return StructureRelation(w, i, j, rel.case, rel.coefficient,
                                     rel.residual + ((w, 1),))
        monkeypatch.setattr(cli, "structure_constant", table)
        case = real(*bad).case
        code, out = run(capsys, "relations-check", "--m", str(m))
        assert code == 1
        assert out.splitlines() == [
            "mismatch at m=%d, (i, j)=(%d, %d), case %s" % (*bad, case),
            "checked %d relation pairs, 0 cross-factor commutations: "
            "failures above" % len(idxs) ** 2]
        code, out = run(capsys, "relations-check", "--m", str(m), "--json")
        assert code == 1
        assert json.loads(out)["failures"] == [
            {"m": m, "i": bad[1], "j": bad[2], "case": case}]

    def test_corrupt_json_names_the_case(self, capsys):
        code, out = run(capsys, "relations-check", "--m", "2", "--json",
                        "--corrupt")
        assert code == 1
        data = json.loads(out)
        assert data["failures"][0]["case"] == "|i+j| < 2m"
        assert data["failures"][0]["i"] == 2
        assert data["failures"][0]["j"] == -3


def _first_random_element():
    """The first element gwa-verify draws for calA at width 2 and seed 0."""
    pres, _ = cuspdiff.cuspops.presentation(2, "calA")
    return cli._random_element(pres, random.Random(0))


class TestGwaVerify:
    def test_calA(self, capsys):
        code, out = run(capsys, "gwa-verify", "--m", "2", "--algebra", "calA")
        assert code == 0
        assert out.strip() == "9 relation checks, 20 round trips: ok"

    def test_round_trip_failure_names_the_element(self, capsys, monkeypatch):
        # a pullback that adds 1 breaks the first round trip and no other check
        real = Embedding.pullback
        monkeypatch.setattr(Embedding, "pullback", lambda emb, op: real(
            emb, op) + emb.presentation.basis((0,)))
        argv = ("gwa-verify", "--m", "2", "--algebra", "calA", "--pairs", "3")
        code, out = run(capsys, *argv)
        assert code == 1
        assert out.splitlines() == [
            "round trip failed at %s" % render_gwa(_first_random_element()),
            "9 relation checks, 3 round trips: FAILED"]
        code, out = run(capsys, *argv[:1], "--json", *argv[1:])
        assert code == 1
        data = json.loads(out)
        assert data["round_trips_ok"] is False
        assert data["round_trips"] == 3
        assert data["failures"] == []

    def test_plain_ring_is_an_error(self, capsys):
        code, _ = run(capsys, "gwa-verify", "--m", "2", "--algebra", "DA")
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--depth", "0"], "--depth must be a positive integer"),
        (["--depth", "-1"], "--depth must be a positive integer"),
        (["--pairs", "-3"], "--pairs must be a nonnegative integer"),
    ])
    def test_empty_sweep_is_a_usage_error(self, capsys, flags, message):
        # a nonpositive depth leaves no triple to check, so it cannot pass
        code, out, err = run_with_stderr(capsys, "gwa-verify", "--m", "2",
                                         "--algebra", "calA", "--json", *flags)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err


class TestClassify:
    def test_bbA_text(self, capsys):
        code, out = run(capsys, "classify", "--m", "4", "--algebra", "bbA")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[1] == ("Gamma1: interval ((h), (h-1)], dimension 1, "
                            "annihilator (delta(-1), h-1, delta(1)), "
                            "support {(h-1)}")
        assert lines[2].startswith("Gamma(m-1): interval ((h-1), (h-4)], "
                                   "dimension 3")
        assert lines[4].startswith("family:")

    def test_bbA_json(self, capsys):
        code, out = run(capsys, "classify", "--m", "3", "--algebra", "bbA",
                        "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        dims = [e["dimension"] for e in data["entries"][:4]]
        assert dims == ["infinite", 1, 2, "infinite"]

    def test_torsion_default(self, capsys):
        code, out = run(capsys, "classify", "--m", "2")
        assert code == 0
        assert out.splitlines()[0] == ("A: support {(h-1)} u "
                                       "{(h-j) : j >= 3}, "
                                       "infinite dimensional")

    def test_weyl_unsupported(self, capsys):
        code, _ = run(capsys, "classify", "--m", "1", "--algebra", "weyl")
        assert code == 2


class TestOrbitNormalizeSupport:
    def test_orbit(self, capsys):
        code, out = run(capsys, "orbit", "--a", "h*(h-1)*(h-4)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "marked on orbit 0: (h), (h-1), (h-4)"
        assert lines[1] == "intervals at the orbit of 0:"
        assert [s.strip() for s in lines[2:]] == [
            "(-inf, (h)]", "((h), (h-1)]", "((h-1), (h-4)]", "((h-4), +inf)"]

    def test_orbit_rejects_nonsplit(self, capsys):
        code, _ = run(capsys, "orbit", "--a", "h^2+1")
        assert code == 2

    def test_orbit_rejects_zero_and_non_polynomials(self, capsys):
        for text, message in (("0", "nonzero polynomial"),
                              ("x", "not a polynomial"),
                              ("d(1)", "not a polynomial")):
            code, out, err = run_with_stderr(capsys, "orbit", "--a", text)
            assert code == 2 and out == ""
            assert message in err and "Traceback" not in err

    def test_normalize(self, capsys):
        code, out = run(capsys, "normalize", "--m", "2", "--algebra", "bbA",
                        "--element", "Y*h + h")
        assert code == 0
        assert out.splitlines() == [
            "input: (h) + (h+1) * Y",
            "normal: false",
            "s = 1",
            "alpha = h^2+h",
            "beta = h^2+3*h+2",
            "normalized: (h+2) + (h+1) * Y",
        ]

    def test_normalize_json(self, capsys):
        code, out = run(capsys, "normalize", "--m", "2", "--algebra", "bbA",
                        "--element", "Y*h + h", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["s"] == 1
        assert data["normal"] is False
        assert data["alpha"] == "h^2+h"

    def test_normalize_rejects_oversized_shift(self):
        # the least shift here is 200001; building alpha would not finish
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdiff", "normalize", "--m", "2",
             "--algebra", "bbA", "--element", "h-200000+Y"],
            capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert elapsed < 1.0
        assert "Traceback" not in proc.stderr
        assert "shift count 200001" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args, code, needle", [
        (["orbit", "--m", "2", "--a", "h-" + _PRIME_31], 0,
         "marked on orbit 0: (h-%s)" % _PRIME_31),
        (["normalize", "--m", "2", "--algebra", "bbA", "--element",
          "h-" + _PRIME_31], 2, "shift count %d" % (int(_PRIME_31) + 1))],
        ids=["orbit", "normalize"])
    def test_linear_root_of_a_31_digit_prime(self, args, code, needle):
        # the root is read off the linear coefficient list; a divisor search
        # would trial-divide the constant term past any timeout
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "cuspdiff", *args],
                              capture_output=True, text=True, env=env,
                              timeout=10)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert needle in proc.stdout + proc.stderr

    def test_support(self, capsys):
        code, out = run(capsys, "support", "--m", "3")
        assert code == 0
        assert out.splitlines() == [
            "A support: {(h-1)} u {(h-j) : j >= 4}",
            "Aprime support: {(h-j) : j <= 0} u {(h-2)} u {(h-3)}",
            "A exponent blocks under the degree one pair: {0}; [3, inf)",
            "Aprime exponent blocks under the degree one pair: "
            "(-inf, -1]; {1} u {2}",
        ]


    def test_support_rejects_small_window(self, capsys):
        # support answers from a proved bound and takes no window at all
        for window in ("0", "5", "12"):
            code, out, err = run_with_stderr(capsys, "support", "--m", "3",
                                             "--window", window)
            assert code == 2
            assert out == ""
            assert err.endswith("error: unrecognized arguments: --window\n")
            assert "Traceback" not in err


# 10^5000, past the interpreter's 4300-digit limit, written without str(int)
_TEN_5000 = "1" + "0" * 5000


class TestValuesOfAnySize:
    """Every digit of a number past the str() limit reaches stdout, from a
    fresh interpreter with its default limit."""

    @staticmethod
    def _cli(*args):
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "cuspdiff", *args],
                              capture_output=True, text=True, env=env,
                              timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    def test_act_coefficient(self):
        # h acts on x^9 as 10, so h^5000 as 10^5000
        assert self._cli("act", "--m", "2", "h^5000", "x^9") == (
            _TEN_5000 + "*x^9\n")
        out = self._cli("act", "--m", "2", "--json", "h^5000", "x^9")
        assert json.loads(out) == {
            "schema": 1, "command": "act", "result": {"9": _TEN_5000},
            "text": _TEN_5000 + "*x^9"}

    def test_million_digit_coefficient_in_near_linear_time(self):
        # h^1000000 acts on x^9 as 10^1000000: a million digits, rendered in
        # a child whose address space is capped at 1 GiB
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdiff", "act", "--m", "2",
             "h^1000000", "x^9"],
            capture_output=True, env=env, timeout=60,
            preexec_fn=limit_address_space)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout) == 1000006
        assert proc.stdout.startswith(b"1" + b"0" * 99)
        assert hashlib.sha256(proc.stdout).hexdigest()[:12] == "9c6edbb4fa42"
        assert elapsed < 3.0

    def test_orbit_root(self):
        ideal = "(h-%s)" % _TEN_5000
        assert self._cli("orbit", "--a", "h-10^5000").splitlines() == [
            "marked on orbit 0: " + ideal,
            "intervals at the orbit of 0:",
            "  (-inf, %s]" % ideal,
            "  (%s, +inf)" % ideal]

    def test_orbit_representative_json(self):
        # the root 1/10^5000 is its own orbit representative
        out = self._cli("orbit", "--json", "--a", "10^5000*h-1")
        assert json.loads(out) == {
            "schema": 1, "command": "orbit",
            "marked": [{"orbit": "1/" + _TEN_5000,
                        "roots": ["1/" + _TEN_5000]}],
            "intervals": [{"kind": "full", "anchors": []}]}

    def test_literal_past_the_limit(self):
        digits = "7" * 4401
        assert self._cli("mul", "--m", "2", digits) == "(%s)\n" % digits

    def test_orbit_root_option_past_the_limit(self):
        digits = "3" * 4401
        assert self._cli("orbit", "--m", "2", "--a", "h", "--root",
                         digits).splitlines() == [
            "marked on orbit 0: (h)",
            "intervals at the orbit of %s:" % digits,
            "  (-inf, (h)]",
            "  ((h), +inf)"]
        out = self._cli("orbit", "--json", "--a", "h", "--root=-1/" + digits)
        assert json.loads(out) == {
            "schema": 1, "command": "orbit",
            "marked": [{"orbit": "0", "roots": ["0"]}],
            "intervals": [{"kind": "full", "anchors": []}]}


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _ = run(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_width(self, capsys):
        code, _ = run(capsys, "phi", "--m", "zero", "1")
        assert code == 2

    @pytest.mark.parametrize("expr, char, at", [
        ("h^²", "²", 2), ("x^١", "١", 2), ("h١", "١", 1)])
    def test_non_ascii_digits_are_refused_at_their_position(
            self, capsys, expr, char, at):
        code, out, err = run_with_stderr(capsys, "mul", "--m", "2", expr)
        assert (code, out) == (2, "")
        assert err.endswith("cuspdiff: error: unexpected character %r at "
                            "position %d\n" % (char, at))

    @pytest.mark.parametrize("root", ["\u0661", "1/\u0662", "\uff13",
                                      "1.\u0665", "\u0661e3"])
    def test_non_ascii_root_is_refused(self, capsys, root):
        code, out, err = run_with_stderr(
            capsys, "orbit", "--m", "2", "--a", "h", "--root", root)
        assert (code, out) == (2, "")
        assert err.endswith(
            "cuspdiff: error: --root expects a rational number\n")

    @pytest.mark.parametrize("args, message", [
        (["phi", "--m", "\u0662", "1"],
         "cuspdiff: error: --m expects a comma separated list of integers"),
        (["stability", "--m", "2", "--window", "\u0661\u0660"],
         "cuspdiff stability: error: argument --window: invalid int value: "
         "'\u0661\u0660'"),
        (["phi", "--m", "1_0", "1"],
         "cuspdiff: error: --m expects a comma separated list of integers"),
        (["delta", "--m", "2", "\u0663"],
         "cuspdiff: error: bad degree spec '\u0663'; expected i or i@k")],
        ids=["m", "window", "separator", "degree"])
    def test_integers_are_ascii_digits(self, capsys, args, message):
        code, out, err = run_with_stderr(capsys, *args)
        assert (code, out) == (2, "")
        assert err.endswith(message + "\n")

    @pytest.mark.parametrize("args, message", [
        (["stability", "--m", "2", "--window", "1"],
         "window 1 below the sweep bound 4"),
        (["gwa-verify", "--m", "1", "--algebra", "bbA"],
         "the degree one pair needs width >= 2"),
        (["classify", "--m", "1", "--algebra", "bbA"],
         "classification needs width m >= 2"),
        (["normalize", "--m", "1", "--algebra", "bbA", "--element", "h"],
         "the degree one pair needs width >= 2")],
        ids=["stability", "gwa-verify", "classify", "normalize"])
    def test_library_rejection_is_a_usage_error(self, capsys, args, message):
        # main turns every ValueError the library raises into exit 2
        code, out, err = run_with_stderr(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.endswith("cuspdiff: error: %s\n" % message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["orbit", "-h"], ["orbit", "--a", "h", "--help"],
        ["orbit", "--a", "h", "-h"], ["orbit", "--a", "--json"],
        ["orbit", "--a", "h", "--bogus", "3"],
        ["orbit", "--a", "h", "--root", "1/2"],
        ["mul", "--m", "2", "h", "x", "--json"],
        ["phi", "--m", "2", "--", "-1"]])
    def test_argv_without_a_dash_value_is_parsed_as_given(self, argv):
        # help flags, unknown flags and a long option where a value should
        # be are left for argparse, as is every argv that needs no rewrite
        assert cli._split_argv(cli._parser().subcommands, argv)[1] == argv

    def test_split_positionals_follow_the_options(self):
        # argparse takes only the first run of a nargs="+" positional
        argv = ["mul", "--m", "2", "h", "--json", "x", "--", "y"]
        assert cli._split_argv(cli._parser().subcommands, argv) == (
            [], ["mul", "--m", "2", "--json", "--", "h", "x", "y"])

    def test_a_dash_value_is_joined_to_its_option(self):
        argv = ["orbit", "--m", "2", "--a", "-h", "--root", "-1/2", "--json"]
        assert cli._split_argv(cli._parser().subcommands, argv) == (
            [], ["orbit", "--m", "2", "--a=-h", "--root=-1/2", "--json"])

    def test_closed_stdout_exits_1_without_traceback(self):
        # about 240 kB of JSON: more than a pipe buffer, so the write itself
        # meets the closed pipe, as in `cuspdiff mul ... | head -c 20`
        src = Path(cuspdiff.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cuspdiff", "mul", "--m", "2", "--json",
             "w(-300)"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(20) == b'{"command": "mul", "'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err
        assert b"BrokenPipeError" not in err


def single_call(*args, timeout=60):
    """(exit code, stdout, stderr) of the CLI alone in a fresh interpreter."""
    src = Path(cuspdiff.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "cuspdiff", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


class TestWindowProbes:
    """A sweep's cost stops growing once the window passes its bound, so a
    huge window answers fast, and as the same command at window 20 does."""

    @pytest.mark.parametrize("argv", [
        ("stability", "--m", "2", "--window", "100000"),
        ("stability", "--m", "2,3", "--window", "400"),
        ("stability", "--m", "3", "--window", "100000")])
    def test_large_window_answers_fast(self, argv):
        docs = []
        for window in (argv[-1], "20"):
            code, out, err = single_call(*argv[:-1], window, "--json",
                                         timeout=5)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc.pop("window") == int(window)
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("gen, code, needle", [
        ("h2^3000", 0, "true"),
        ("x1*h2^3000", 2, "window 12 below the sweep bound 3003")])
    def test_coefficient_degree_cannot_outrun_the_window(self, gen, code,
                                                         needle):
        # a degree-zero component never leaves the mask, so its coefficient
        # adds nothing to the bound; a moving one of degree 3000 in h2 needs
        # a bound past 3000, which the default window refuses
        got, out, err = single_call("stability", "--m", "2,3", "--gens", gen,
                                    timeout=5)
        assert got == code
        assert needle in out + err


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    @pytest.mark.parametrize("argv", [
        ("stability", "--m", "2", "--window", "8", "--gens", "x", "--gens", "h",
         "--json"),
        ("relations-check", "--m", "3", "--corrupt", "--seed", "5")])
    def test_repeated_call_matches_a_single_call(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        alone = single_call(*argv)
        assert alone[0] == 1
        for _ in range(2):
            assert run_with_stderr(capsys, *argv) == alone

    def test_usage_error_after_a_success(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        ok = ("phi", "--m", "2", "--", "-1", "1", "2")
        bad = ("relations-check", "--m", "2,x")
        ok_alone, alone = single_call(*ok), single_call(*bad)
        assert ok_alone[0] == 0 and alone[0] == 2
        assert "--m expects a comma separated list of integers" in alone[2]
        for _ in range(2):
            assert run_with_stderr(capsys, *ok) == ok_alone
            assert run_with_stderr(capsys, *bad) == alone


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# Leading 12 hex digits of the sha256 of stdout, for a call as written and
# for the same call with --json after the subcommand.  Neither writes to
# stderr.
_PINNED = [  # argv, exit code, text stdout, --json stdout
    ("mul --m 2 'delta(-1)*delta(1)'", 0, '35c88970a6af', 'eb4981506463'),
    ("mul --m 2,3 'delta(1@2)*h1' x2", 0, '5e240166aeb1', 'e03d42f4dc4b'),
    ("member --m 3 'delta(-2)'", 0, 'd82247ad389c', 'c0894c249538'),
    ("member --m 3 'd(1)'", 1, 'be8c30a8a8f1', 'd46e1e0e64de'),
    ('member --m 2 --algebra calA x', 1, '1c6173ebfd19', '73ff04656632'),
    ("member --m 2 --algebra bbA 'x^2'", 1, '875fa6e1a9af', 'f8f197651aae'),
    ("member --m 1 --algebra weyl 'x^-1'", 1, '9ef4cd31ced6', '51c3facf432d'),
    ('phi --m 2 -- -1 1 2', 0, '1c8bdc5f0d3a', '505546d672da'),
    ('phi --m 2,3 1 -4', 0, 'e4d7453c7adc', '9f8dc9bd521d'),
    ('delta --m 2 -- -2 2', 0, '5139231870d7', '1e15b133cb96'),
    ('delta --m 2,3 1@2 -1', 0, '65039ae0f5cf', '0439daf7a0bf'),
    ("decompose --m 2 'h*delta(1)+3*delta(-2)'",
     0, '49d2fe3a241d', '6b306c65e93f'),
    ('decompose --m 2 0', 0, '9a271f2a916b', 'c163567f5014'),
    ('decompose --m 2 x', 1, '70f9dce15c1d', 'f535bc4a7b80'),
    ("act --m 2 'd(1)' 'x^2'", 0, '6329cfd7b8d3', '7e200f892b9d'),
    ("act --m 2 '3/2*delta(1)*h' '1/2*x^3 - 2*x^-1 + 4/3'",
     0, 'c8de81dbac20', '35a0df4f7168'),
    ("act --m 2 --quotient 'delta(-2)' x", 0, 'ea471e394c95', '61af8579bea3'),
    ("act --m 2 --quotient 'd(1)' x", 1, '5a5228dbc8bb', 'e05a58d13bc6'),
    ("act --m 2,3 'delta(1@2)' 'x1*x2^3'", 0, '0fe54a8197c3', 'eaaa1ab27c0d'),
    ('stability --m 2 --window 8', 0, '36140b7ba20a', '988ac88dccf7'),
    ('stability --m 2 --window 8 --gens x', 1, 'fc2c8e186af7', '4ec5c6c84cbc'),
    ('relations-check --m 2', 0, '567d46861539', 'bbd605ec7e82'),
    ('relations-check --m 2,3', 0, '46cc514d75f3', '73c9a7e24e30'),
    ('relations-check --m 2 --corrupt', 1, '3d4723f6a006', '08464c7cb704'),
    ('relations-check --m 3 --corrupt --seed 5',
     1, 'e785102d2def', 'c34d5c213cb2'),
    ('gwa-verify --m 2 --algebra calA', 0, 'c2f04e0d3fec', 'a5554b7984a3'),
    ('gwa-verify --m 2 --algebra bbA --depth 2 --pairs 3',
     0, '5750f9bd2a4b', '729f984acb17'),
    ('gwa-verify --m 2 --algebra weyl --pairs 2',
     0, '5921ab1d86e0', '9351d7a33437'),
    ('classify --m 4 --algebra bbA', 0, '7b3df6ff685a', 'a053910dee9b'),
    ('classify --m 2', 0, '51d49a4cc82a', '7baf853347c9'),
    ("orbit --a 'h*(h-1)*(h-4)'", 0, 'dcc8c25f1b71', 'e38adbd90975'),
    ('orbit --a 3', 0, '8a05861ac7c2', '7d97ece09427'),
    ("orbit --a 'h*(h-1/2)' --root 1/2", 0, '72784760fc08', '5793e324e8c0'),
    ("normalize --m 2 --algebra bbA --element 'Y*h + h'",
     0, '47e1bbb40a7b', '8ad6a40d53b2'),
    ("normalize --m 3 --algebra calA --element 'h+Y*h'",
     0, 'c7e61f6780a0', '12cabe16fb13'),
    ('normalize --m 2 --algebra bbA --element h+2',
     0, '75a2ac9edc45', 'e1cbc51ed05f'),
    ('support --m 3', 0, 'f4dbdafaf9c2', '5dd2f39557f0'),
    ('support --m 2', 0, '6ad62a8e2039', '4f94498c2c0c'),
    ('stability --m 2,3 --window 10', 0, 'ce541a64154d', 'dc366efd2693'),
    ("member --m 2,3 'delta(1@2)*h1+delta(-1)'",
     0, 'd82247ad389c', 'c0894c249538'),
    ('member --m 2,3 x2', 1, 'be8c30a8a8f1', 'd46e1e0e64de'),
    ("decompose --m 2,3 'delta(1@2)*h1+delta(-1)'",
     0, 'd7900843584c', 'f23f9d598527'),
    ('decompose --m 2,3 x2', 1, '4602cc1cbcfc', '29acc32a2c5f'),
    ('classify --m 3 --algebra bbA', 0, 'e69c4eefe2ab', 'c6a95423f7c2'),
    ("orbit --a 'h*(h-1)*(h-1/2)' --root 1/2",
     0, 'cb05f5a961c8', 'c853a866c197'),
    ("member --m 2,3 --algebra weyl 'd(1)*x2+h2*d(2)^2'",
     0, '38ae5bbb95be', '8833081c11e6'),
    ("member --m 2,3 --algebra weyl 'x1^-1*x2'",
     1, '9ef4cd31ced6', '51c3facf432d'),
    ("act --m 2,3 --quotient 'delta(-2)' 'x1*x2^-1'",
     0, 'a17de6070ef1', 'b236bcbdab1f'),
    ("act --m 2,3 --quotient x2 'x1^-1'", 1, '5a5228dbc8bb', 'e05a58d13bc6'),
    ('classify --m 3', 0, '8882d358daf3', 'a478f3776716'),
    ('stability --m 2 --gens 0', 0, '2223122d6911', '240c5f4c8c04'),
    ('stability --m 2 --gens h', 0, '2223122d6911', '240c5f4c8c04'),
    # below twice the generator degree 3, at the sweep bound 4 and past it
    ('stability --m 2 --window 5', 0, '0af835c6b9e3', 'aee80db2e643'),
    # an expression that begins with "-" is a value: each digest is that of
    # the call with a bare -- before its positionals
    ("mul --m 2 '-h*x'", 0, 'd93f8c656631', '974a72d99c40'),
    ("mul --m 2 '-3*x'", 0, '70d57083936b', 'c67e7da2898f'),
    ("act --m 2 h '-x'", 0, '12ee8c1d62a3', '3905bb73fe74'),
    # so is an option's value that begins with "-": each digest is that of
    # the call written --opt=value
    ('orbit --a h --root -1/2', 0, '4ba35700efcf', 'e3255f793a4b'),
    ('orbit --a -h+1', 0, '48f04b8fa6e4', '003a6caaa8d5'),
    ('normalize --element -h', 0, 'd1b6221082e9', 'b4db3244d0f2'),
    ('stability --gens -x', 1, 'a773c8840c55', 'cff9a672c421'),
    # positionals split by an option: each digest is that of the call with
    # its options first, then a bare --, then its positionals
    ('mul h --m 2 x', 0, '75e407628297', '68e8c8fbdfa5'),
    ("act --m 2 'delta(-2)' --quotient x", 0, 'ea471e394c95', '61af8579bea3'),
]

_PINNED_USAGE = [  # argv, stdout, stderr; each exits 2
    ('', '9df5e502ed20', 'e3b0c44298fc'),
    ('frobnicate', 'e3b0c44298fc', '321dbd28897e'),
    ('mul --m 2 --window x h', 'e3b0c44298fc', '1c005e3f2107'),
    ('stability --m 2 --window x', 'e3b0c44298fc', 'f4502ad0bd7a'),
    # a flag its subcommand does not read is refused, not ignored
    ('phi --m 2 1 --algebra bbA', 'e3b0c44298fc', '7f7a52ecb67b'),
    ('orbit --a h --window 3', 'e3b0c44298fc', '1c005e3f2107'),
    ('support --m 3 --seed 1', 'e3b0c44298fc', '11a425d02fb5'),
    ("mul --m 2 'h+$'", 'e3b0c44298fc', '47dd15f840e1'),
    ('phi --m zero 1', 'e3b0c44298fc', 'd525edb8266f'),
    ('phi --m 0 1', 'e3b0c44298fc', 'b80a50fa8b39'),
    ('relations-check --m 2,x', 'e3b0c44298fc', 'd525edb8266f'),
    ('delta --m 2 1@x', 'e3b0c44298fc', '9db20ea646f8'),
    ('delta --m 2 1@2', 'e3b0c44298fc', '40b9589d0eed'),
    ("act --m 2 'd(1)' 'h*x'", 'e3b0c44298fc', '1a8ddd6c8293'),
    ("act --m 2 --json 'd(1)' x+h", 'e3b0c44298fc', '1a8ddd6c8293'),
    ('classify --m 2,3', 'e3b0c44298fc', '34e7d14f2a84'),
    ('orbit --m 2,3 --a h', 'e3b0c44298fc', '11e17c36ae7e'),
    ('normalize --m 2,3 --algebra bbA --element h',
     'e3b0c44298fc', '7c56b48f948c'),
    ('support --m 2,3', 'e3b0c44298fc', 'e9b0583c71a4'),
    ('gwa-verify --m 2 --algebra calA --depth 0',
     'e3b0c44298fc', '82536868aab9'),
    ('gwa-verify --m 2 --algebra calA --pairs -1',
     'e3b0c44298fc', '1cc2ae2f3b1e'),
    ('gwa-verify --m 2 --json', 'e3b0c44298fc', '38d93148b7a4'),
    ('orbit --a 0', 'e3b0c44298fc', '5b7568e4667d'),
    ("orbit --a 'h^2+1'", 'e3b0c44298fc', '2beeabab2331'),
    ('orbit --a h --root x', 'e3b0c44298fc', '55fde3869280'),
    ('orbit --a h --root 1/0', 'e3b0c44298fc', '55fde3869280'),
    ('classify --m 2 --algebra calA', 'e3b0c44298fc', '89d346a9af2e'),
    ('classify --m 2 --algebra weyl', 'e3b0c44298fc', '89d346a9af2e'),
    ('normalize --m 2 --algebra bbA --element x',
     'e3b0c44298fc', '9aeba0b3a386'),
    ('normalize --m 2 --algebra bbA --element h-300+Y',
     'e3b0c44298fc', 'fb43a3e98888'),
    ("normalize --m 2 --element 'X*h'", 'e3b0c44298fc', 'e95d31357f9d'),
    ('stability --m 2 --window 1', 'e3b0c44298fc', 'c29f5aacf454'),
    ('support --m 3 --window 5', 'e3b0c44298fc', '1c005e3f2107'),
    ('stability --m 2,3 --window 6', 'e3b0c44298fc', '9cf60d57c459'),
    ('classify --m 3 --algebra bbA --window 0',
     'e3b0c44298fc', '1c005e3f2107'),
    # the window-free sweeps take no --window
    ('support --m 3 --window 12', 'e3b0c44298fc', '1c005e3f2107'),
    ('classify --m 3 --algebra bbA --window 3', 'e3b0c44298fc', '1c005e3f2107'),
    # an unread flag is refused by name, before its value reaches a
    # positional
    ('phi --m 2 --algebra bbA 1', 'e3b0c44298fc', '7f7a52ecb67b'),
    ('mul --m 2 --window 3 h', 'e3b0c44298fc', '1c005e3f2107'),
]


def _pinned_calls():
    for line, code, text, as_json in _PINNED:
        argv = shlex.split(line)
        yield pytest.param(argv, code, text, _digest(""), id=line)
        yield pytest.param(argv[:1] + ["--json"] + argv[1:], code, as_json,
                           _digest(""), id=line + " [json]")
    for line, out, err in _PINNED_USAGE:
        yield pytest.param(shlex.split(line), 2, out, err,
                           id=line or "no subcommand")


class TestPinnedOutput:
    """Exact stdout, stderr and exit code of one call per output path:
    every subcommand in text and --json, every check that fails, and every
    usage error the handlers raise."""

    @pytest.mark.parametrize("argv, code, out, err", _pinned_calls())
    def test_call(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        got = run_with_stderr(capsys, *argv)
        assert (got[0], _digest(got[1]), _digest(got[2])) == (code, out, err), (
            "exit %r\n--- stdout\n%s--- stderr\n%s" % got)


def _args_reads(tree, func, param="args"):
    """The attributes read off param in func, and in every module function
    that func passes param to, at any depth."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reads, seen, todo = set(), set(), [(functions[func], param)]
    while todo:
        node, name = todo.pop()
        if (node.name, name) in seen:
            continue
        seen.add((node.name, name))
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value,
                                                              ast.Name)
                    and sub.value.id == name):
                reads.add(sub.attr)
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in functions):
                callee = functions[sub.func.id]
                todo += [(callee, p.arg) for a, p in zip(sub.args,
                                                         callee.args.args)
                         if isinstance(a, ast.Name) and a.id == name]
    return reads


def test_every_option_is_read():
    """Each subcommand declares exactly the options its handler reads, plus
    --json, which main reads.

    The declared options come from argparse's internal _actions.  The reads
    are found in the AST: args.<name> in the handler, and in the module
    functions it passes args to positionally under the same name; a read by
    keyword argument or getattr would be missed."""
    tree = ast.parse(Path(cli.__file__).read_text())
    subparsers, = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    unread, missing = [], []
    for name, sub in subparsers.choices.items():
        declared = {action.dest for action in sub._actions
                    if not isinstance(action, argparse._HelpAction)}
        reads = _args_reads(tree, sub.get_default("func").__name__) | {"json"}
        unread += [(name, dest) for dest in sorted(declared - reads)]
        missing += [(name, dest) for dest in sorted(reads - declared)]
    assert (unread, missing) == ([], [])


class TestDeterminismCorpus:
    def test_render_parse_round_trip_corpus(self, capsys):
        # a deterministic corpus of rendered operators must survive the trip
        rng = random.Random(2024)
        shape = 2
        corpus = []
        for _ in range(100):
            u = LaurentOp.zero(1)
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(-4, 4)
                coeff = BasePoly(1, {(rng.randint(0, 3),):
                                     rng.randint(-9, 9)})
                u = u + LaurentOp.monomial(1, (deg,), coeff)
            corpus.append(u)
        for u in corpus:
            text = render_op(u)
            assert parse_expression(text, shape) == u
            code, out = run(capsys, "mul", "--m", "2", text)
            assert code == 0
            assert parse_expression(out.strip(), shape) == u

    def test_mul_output_reparses(self, capsys):
        # CLI output is itself valid input
        code, out = run(capsys, "mul", "--m", "2", "delta(-2)*delta(2)*h")
        assert code == 0
        round_tripped = parse_expression(out.strip(), 2)
        expected = delta_op(2, (-2,)) * delta_op(2, (2,)) * LaurentOp.h(1, 0)
        assert round_tripped == expected
