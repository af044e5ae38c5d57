"""The benchmark's four workloads.

Each workload draws its inputs from its seed in `setup`, hands the
library only those inputs in `run` (the timed op), and checks the result
against the independent oracles in `check`, outside the timed region.

Inputs come in blocks.  A block holds one op at every point of a fixed
grid of sizes over the input range (chain lengths, coefficient sizes,
word lengths, fact counts; every CLI verb), in seeded order.  Op cost
grows steeply with size, so a free draw of sizes made runs with
different seeds differ by more than the machine's own noise.  On the
grid, the seed draws what does not set the amount of work: the order,
the knots of `enumerate`, the words, facts, offsets and positions of
`symbolic`, and the arguments of `cli-mix`.  `block_s` is a block's op
time at the seed commit on a 2-core x86-64 machine; it sets how many
blocks a run of a given length draws.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

import oracles

PACKAGE = "contactsurgery"
MODULES = (
    "errors", "legendrian", "catalog", "expansion", "linalg", "homology",
    "openbook", "ledger", "diagramio", "acceptance", "cli",
)


def load_library() -> SimpleNamespace:
    """Import the package afresh, dropping any earlier import, so each
    set-up pays the import a user pays."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


class Workload:
    name = ""
    block_s = 1.0

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.lib = None
        self.blocks: list[list[dict]] = []

    def setup(self, lib, blocks: int = 1) -> None:
        """Draw `blocks` blocks of inputs and warm up."""
        self.lib = lib
        rng = Random(f"{self.name}:{self.seed}")
        self.blocks = [self.make_block(rng, i) for i in range(blocks)]
        self.warm_up()

    def make_block(self, rng: Random, index: int) -> list[dict]:
        raise NotImplementedError

    def warm_up(self) -> None:
        op = min(self.blocks[0], key=lambda o: o["size"])
        self.check(op, self.run(op))

    def run(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, result) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _knot(lib, rng: Random):
    tb, rot = rng.choice(oracles.legendrian_unknots())
    return lib.legendrian.LegendrianKnot(tb, rot)


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """The centres of `count` equal bands over [lo, hi]."""
    return [round(lo + (hi - lo) * (2 * i + 1) / (2 * count)) for i in range(count)]


class ChainD3(Workload):
    """Long pushoff chains: homology_data plus d3_invariant of one
    presentation.  linalg and homology do nearly all the work."""

    name = "chain-d3"
    block_s = 7.8
    lengths = range(8, 41)
    stab_check_share = 0.25
    stab_check_max_n = 24  # the S_-K check costs one more d3 at n + 1

    def make_block(self, rng, index):
        # Op cost grows about as n^4, and at one n it moves by up to 2x with
        # the knot, the kind and the coefficient.  Block i therefore has a
        # fixed design: each n copies(n) times, the kinds alternating, the
        # 21 knots and the three p in turn.  The seed draws the order and
        # which ops check stabilization invariance.
        knots = oracles.legendrian_unknots()
        ops = [
            self._make(rng, n, knots[(5 * n + 7 * j + 11 * index) % len(knots)],
                       (n + j + index) % 2 == 0, 1 + (n // 2 + j + index) % 3)
            for n in self.lengths for j in range(self.copies(n))
        ]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def copies(n: int) -> int:
        """Short chains more often: one op at n = 8 costs under 1% of one at
        n = 40, and with one of each the median op would rest on a few
        samples at n = 24."""
        return max(1, round((24 / n) ** 2))

    def _make(self, rng, n, tb_rot, integer, p):
        exp = self.lib.expansion
        knot = self.lib.legendrian.LegendrianKnot(*tb_rot)
        if integer:
            r = Fraction(n)
            presentation = exp.all_negative_presentation(knot, n)
            stab_check = n <= self.stab_check_max_n and rng.random() < self.stab_check_share
        else:
            # -p/q with small p: a chain of n links, nearly all 2s.
            p = p if _chain_qs(p, n) else 1
            r = Fraction(-p, _chain_qs(p, n)[0])
            presentations = exp.expand(knot, r)
            presentation = presentations[n % len(presentations)]
            stab_check = False
        return {"size": n, "knot": knot, "r": r, "presentation": presentation,
                "stab_check": stab_check}

    def run(self, op):
        hom = self.lib.homology
        data = hom.homology_data(hom.linking_matrix(op["presentation"]))
        return data, hom.d3_invariant(op["presentation"])

    def check(self, op, result):
        data, d3 = result
        knot, n = op["knot"], op["size"]
        order = oracles.order_h1(knot.tb, op["r"])
        ok = (
            abs(data.determinant) == order
            and data.order_h1 == order
            and data.euler_characteristic == 1 + n
            and isinstance(d3, Fraction)
        )
        if ok and op["stab_check"]:
            lib = self.lib
            framing = lib.legendrian.Framing(knot.tb + n)
            stabilized = lib.legendrian.LegendrianKnot(knot.tb - 1, knot.rot - 1)
            ok = d3 == lib.homology.d3_invariant(
                lib.expansion.presentation_for_framing(stabilized, framing))
        return ok


@functools.cache
def _chain_qs(p: int, n: int) -> list[int]:
    """q coprime to p such that -p/q expands into a chain of n links."""
    return [
        q for q in range(1, 3 * n + 8)
        if math.gcd(p, q) == 1 and len(oracles.negative_cf(1 + Fraction(p, q))) == n
    ]


def _factors(links: int, count: int) -> list[int]:
    """`links` near-equal factors >= 2 with product near `count`.  Near-equal
    factors keep the stabilizations per presentation, and so the op cost,
    close to a function of the count."""
    fs = [max(2, round(count ** (1 / links)))] * (links - 1)
    return fs + [max(2, round(count / math.prod(fs)))]


class Enumerate(Workload):
    """expand one coefficient into all its presentations, then take every
    presentation's determinant.  expansion dominates; linalg sees
    thousands of 1x1 to 4x4 matrices."""

    name = "enumerate"
    block_s = 3.9
    # r = -N costs O(N^2) and dominates, so a block has four of them and
    # thirty-two cheaper ops of rational coefficients, to keep the op count up.
    sizes_n = _grid(200, 1000, 4)
    counts = _grid(200, 1000, 8)
    # The median op is a short r < 0 one; each of those on this many knots,
    # so the median rests on more runs.
    copies = 3

    def make_block(self, rng, index):
        ops = [self._make(rng, Fraction(-size)) for size in self.sizes_n]
        for i, size in enumerate(self.counts):
            # r < 0 with 2-4 links and hundreds of presentations.
            terms = [f + 1 for f in _factors(2 + i % 3, size)]
            r = 1 - oracles.eval_negative_cf(terms)
            ops += [self._make(rng, r) for _ in range(self.copies)]
            # r > 1: a +1 component, then 1-3 links, hundreds of presentations.
            terms = [f + 1 for f in _factors(1 + i % 3, size)]
            residual = 1 - oracles.eval_negative_cf(terms)
            ops.append(self._make(rng, residual / (1 + residual)))
        rng.shuffle(ops)
        return ops

    def _make(self, rng, r):
        count = oracles.presentation_count(r)
        return {"size": count, "knot": _knot(self.lib, rng), "r": r}

    def run(self, op):
        presentations = self.lib.expansion.expand(op["knot"], op["r"])
        dets = [self.lib.homology.linking_matrix(p).determinant() for p in presentations]
        return presentations, dets

    def check(self, op, result):
        presentations, dets = result
        knot, r = op["knot"], op["r"]
        order = oracles.order_h1(knot.tb, r)
        first = [
            (c.coefficient, c.legendrian.tb, c.legendrian.rot, "".join(c.stab_signs))
            for c in presentations[0].components
        ]
        _, x = oracles.chain_x(r)
        terms = self.lib.expansion.negative_continued_fraction(x)
        return (
            list(terms) == oracles.negative_cf(x)
            and len(presentations) == math.prod(a - 1 for a in terms) == op["size"]
            and all(abs(d) == order for d in dets)
            and first == oracles.all_negative_profile(knot.tb, knot.rot, r)
        )


FIXTURE_DIAGRAM = "fixtures/unknot-n2.json"
FIXTURE_BOOK = "fixtures/torus-book.json"
GOLDEN = {
    "d3": "-1/2\n",
    "homology": "|H1| = 1\nsignature = 0\neuler characteristic = 3\ndeterminant = -1\n",
    "action": "genus 1, boundary components 2, H1 rank 3\nword: a+ b+ a+\n"
              "   0   -1    0\n   1    0    0\n   0    0    1\n",
    "cap": "genus 1, boundary components 1, H1 rank 2\nword: a+ b+ a+\n",
}


class CliMix(Workload):
    """One `python -m contactsurgery.cli` subprocess per op over every user
    verb.  Interpreter start, import and argparse dominate."""

    name = "cli-mix"
    block_s = 1.75
    timeout_s = 60

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.tmp = root / ".bench_tmp" / f"cli-mix-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.catalog = json.loads(
            (root / "src" / PACKAGE / "data" / "seed_catalog.json").read_text("utf-8"))

    def setup(self, lib, blocks=1):
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.files = 0
        super().setup(lib, blocks)

    def warm_up(self):
        # Fills __pycache__ for the child interpreters.
        op = {"argv": ["d3", "--file", FIXTURE_DIAGRAM], "expect": ("exact", GOLDEN["d3"])}
        self.check(op, self.run(op))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.parent.rmdir()

    def _write(self, data) -> str:
        self.files += 1
        path = self.tmp / f"diagram-{self.files}.json"
        path.write_text(json.dumps(data), "utf-8")
        return str(path)

    def make_block(self, rng, index):
        lib = self.lib
        records = [r for r in self.catalog if r["max_tb"] is not None]
        ops = [
            ({"argv": ["d3", "--file", FIXTURE_DIAGRAM]}, ("exact", GOLDEN["d3"])),
            ({"argv": ["homology", "--file", FIXTURE_DIAGRAM]}, ("exact", GOLDEN["homology"])),
            ({"argv": ["openbook", "--file", FIXTURE_BOOK, "--action"]}, ("exact", GOLDEN["action"])),
            ({"argv": ["openbook", "--file", FIXTURE_BOOK, "--cap", "0"]}, ("exact", GOLDEN["cap"])),
            ({"argv": ["catalog", "--list"]},
             ("exact", "".join(n + "\n" for n in sorted(r["name"] for r in self.catalog)))),
        ]
        # d3 of a generated n <= 6 diagram; expected from S_-K, where d3 agrees.
        knot = _knot(lib, rng)
        n = rng.choice([n for n in range(2, 7) if knot.tb + n != 0])  # finite H1
        framing = lib.legendrian.Framing(knot.tb + n)
        expected = lib.homology.d3_invariant(lib.expansion.presentation_for_framing(
            lib.legendrian.LegendrianKnot(knot.tb - 1, knot.rot - 1), framing))
        path = self._write(_diagram(lib.expansion.all_negative_presentation(knot, n)))
        ops.append(({"argv": ["d3", "--file", path]}, ("exact", f"{expected}\n")))
        # homology of a generated presentation of a small coefficient.
        knot = _knot(lib, rng)
        r = rng.choice([r for r in SMALL_COEFFS if oracles.order_h1(knot.tb, r)])  # finite H1
        path = self._write(_diagram(rng.choice(lib.expansion.expand(knot, r))))
        ops.append(({"argv": ["homology", "--file", path]},
                    ("first", f"|H1| = {oracles.order_h1(knot.tb, r)}")))
        for flag in ((), ("--json",)):
            knot, r = _knot(lib, rng), rng.choice(SMALL_COEFFS)
            argv = ["expand", "--tb", str(knot.tb), "--rot", str(knot.rot), f"--coeff={r}", *flag]
            kind = "json_count" if flag else "first"
            count = oracles.presentation_count(r)
            ops.append(({"argv": argv},
                        (kind, count if flag else f"{count} presentation(s)")))
        record = rng.choice(self.catalog)
        ops.append(({"argv": ["catalog", "--knot", record["name"]]},
                    ("prefix", f"name: {record['name']}\ngenus: {record['genus']}\n")))
        record = rng.choice(records)
        ops.append(({"argv": ["classify", "--knot", record["name"]]},
                    ("exact", "".join(x + "\n" for x in oracles.tight_lines(record)))))
        ops.append(self._ledger_op(rng, rng.choice(records)))
        # Documented input errors: exit code 2.
        knot = _knot(lib, rng)
        base = ["expand", "--tb", str(knot.tb), "--rot", str(knot.rot)]
        ops.append(({"argv": base + ["--coeff", "0"]}, ("exit", 2)))
        ops.append(({"argv": base + ["--coeff", rng.choice(["1/2", "2/3", "3/7"])]}, ("exit", 2)))
        ops.append(({"argv": [rng.choice(["catalog", "classify"]), "--knot",
                              rng.choice(["T(9,11)", "unknot#", "K(1,1)"])]}, ("exit", 2)))
        rng.shuffle(ops)
        return [dict(op, expect=expect, size=0) for op, expect in ops]

    def _ledger_op(self, rng, record):
        tb = record["max_tb"] - rng.randint(0, 3)
        bound = 2 * record["genus"] - 1 - tb  # Bennequin: tb + |rot| <= 2g - 1
        rot = rng.choice([x for x in range(-bound, bound + 1) if (tb + x) % 2] or [tb + 1])
        argv = ["ledger", "--knot", record["name"], f"--tb={tb}", f"--rot={rot}"]
        sl = None
        if record["max_sl"] is not None and rng.random() < 0.7:
            sl = record["max_sl"] - 2 * rng.randint(0, 1)
            argv.append(f"--sl={sl}")
        binding = rng.random() < 0.6
        if binding:
            argv.append("--binding")
        lines = oracles.ledger_lines(record, tb, sl, binding)
        return {"argv": argv}, ("exact", "".join(x + "\n" for x in lines))

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", f"{PACKAGE}.cli", *op["argv"]],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=self.timeout_s,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, op):
        """cli.main(argv) in this process with output captured."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(op["argv"])
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    def check(self, op, result):
        code, stdout = result
        kind, want = op["expect"]
        if kind == "exit":
            return code == want and stdout == ""
        if code != 0:
            return False
        if kind == "exact":
            return stdout == want
        if kind == "prefix":
            return stdout.startswith(want)
        if kind == "first":
            return stdout.split("\n", 1)[0] == want
        if kind == "json_count":
            return len(json.loads(stdout)["presentations"]) == want
        raise ValueError(f"unknown expectation {kind!r}")


SMALL_COEFFS = [Fraction(x) for x in ("-1", "-2", "-5", "-9/4", "-7/2", "-5/3", "-3/5",
                                      "2", "3", "5", "3/2", "7/3")]


def _diagram(presentation) -> dict:
    return {"components": [
        {"tb": c.legendrian.tb, "rot": c.legendrian.rot,
         "coeff": "+1" if c.coefficient == 1 else "-1", "role": c.role,
         "stab_signs": list(c.stab_signs)}
        for c in presentation.components
    ]}


def _cyclically_reduce(rng: Random, word: list, names: list, keep: set) -> None:
    """Redraw letters outside `keep` until no letter is next to its inverse,
    the last and first letters included.  cyclic_words_equal cancels only
    inside the word, not across its ends, so a rotation of a word that is
    not cyclically reduced can compare unequal."""
    n = len(word)

    def inverse(a, b):
        return a[0] == b[0] and a[1] != b[1]

    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i in keep:
                continue
            while inverse(word[i], word[i - 1]) or inverse(word[i], word[(i + 1) % n]):
                word[i] = (rng.choice(names), rng.choice("+-"))
                changed = True


class Symbolic(Workload):
    """Open-book jobs on a rank-7 lantern model and ledger sessions, one to
    one.  openbook and ledger dominate."""

    name = "symbolic"
    block_s = 2.4
    word_lengths = _grid(200, 2000, 8)
    # Session i asserts about fact_counts[i] facts and reads a window about
    # widths[i] wide: read cost grows with both.
    fact_counts = _grid(50, 500, 8)
    widths = _grid(50, 400, 8)
    planted_sessions = 2  # per block, each asserting one contradicting fact
    probes = 3  # random rewrite positions per job; most are mismatches

    def make_block(self, rng, index):
        surface, config = self.lib.acceptance.lantern_ambient_model()
        ops = [self._book(rng, surface, config, size) for size in self.word_lengths]
        planted = rng.sample(range(len(self.fact_counts)), self.planted_sessions)
        ops += [self._session(rng, facts, width, i in planted)
                for i, (facts, width) in enumerate(zip(self.fact_counts, self.widths))]
        rng.shuffle(ops)
        return ops

    def _book(self, rng, surface, config, length):
        names = [name for name, _ in surface.curves]
        word = [(rng.choice(names), rng.choice("+-")) for _ in range(length)]
        source = config.source("LtoR")
        wraps = rng.random() < 0.25
        at = length - rng.randint(1, len(source) - 1) if wraps else rng.randrange(length - len(source))
        planted = {(at + k) % length for k in range(len(source))}
        for k, letter in enumerate(source):
            word[(at + k) % length] = letter
        _cyclically_reduce(rng, word, names, planted)
        return {
            "kind": "book", "size": length, "surface": surface, "config": config,
            "word": tuple(word), "at": at, "wraps": wraps,
            "probes": [rng.randrange(length) for _ in range(self.probes)],
            "rotation": rng.randrange(1, length), "split": rng.randrange(1, length),
            "new_class": (0,) * surface.h1_rank + (1,),
        }

    def _session(self, rng, count, width, planted):
        ceiling = rng.randint(-50, 50)
        floor = ceiling + rng.randint(1, 20)
        zeros = count // 2 + rng.randint(-count // 10, count // 10)
        zero_offsets = [ceiling] + rng.sample(range(ceiling - 3 * count, ceiling), zeros - 1)
        nonzero_offsets = [floor] + rng.sample(range(floor + 1, floor + 3 * count), count - zeros - 1)
        facts = [(o, "Zero", f"z{i}") for i, o in enumerate(zero_offsets)]
        facts += [(o, "NonZero", f"n{i}") for i, o in enumerate(nonzero_offsets)]
        rng.shuffle(facts)
        replay = facts[:]
        rng.shuffle(replay)
        lo = ceiling - width // 2 + rng.randint(-10, 10)
        status = self.lib.openbook.InvariantStatus
        return {
            "kind": "ledger", "size": count, "facts": facts, "replay": replay,
            "lib_facts": [(o, status(s), rule) for o, s, rule in facts],
            "planted": (ceiling - rng.randint(0, 5), status.NONZERO, "planted") if planted else None,
            "window": (lo, lo + width - 1),
        }

    def run(self, op):
        return (self._run_book if op["kind"] == "book" else self._run_session)(op)

    def _run_book(self, op):
        ob = self.lib.openbook
        surface, config, word = op["surface"], op["config"], op["word"]
        before = ob.homology_action(word, surface)
        rewritten = ob.lantern_rewrite(word, config, op["at"], "LtoR", surface)
        mismatches = 0
        for pos in op["probes"]:
            try:
                ob.lantern_rewrite(word, config, pos, "LtoR", surface)
            except self.lib.errors.PatternMismatch:
                mismatches += 1
        after = ob.homology_action(rewritten, surface)
        k = op["rotation"]
        rotation_equal = ob.cyclic_words_equal(word, word[k:] + word[:k])
        big, stabilized = ob.giroux_stabilize(surface, rewritten, "h", op["new_class"])
        _, restored = ob.giroux_destabilize(big, stabilized, "h")
        return before, rewritten, after, rotation_equal, restored

    def _run_session(self, op):
        led = self.lib.ledger
        state = led.LedgerState()
        for offset, status, rule in op["lib_facts"]:
            state = led.assert_fact(state, offset, status, rule)
        contradictions = 0
        if op["planted"]:
            try:
                led.assert_fact(state, *op["planted"])
            except self.lib.errors.Contradiction:
                contradictions += 1
        return state.window(*op["window"]), contradictions

    def check(self, op, result):
        return (self._check_book if op["kind"] == "book" else self._check_session)(op, result)

    def _check_book(self, op, result):
        before, rewritten, after, rotation_equal, restored = result
        action = self.lib.openbook.homology_action
        surface, word, s, at = op["surface"], op["word"], op["split"], op["at"]
        # A wrapped rewrite is anchored at the window start: compare with
        # the rotation of the word that starts there.
        base = before if not op["wraps"] else action(word[at:] + word[:at], surface)
        return (
            after == base
            and oracles.mat_mul(action(word[:s], surface), action(word[s:], surface)) == before
            and rotation_equal is True
            and oracles.cyclically_equal(restored, rewritten)
        )

    def _check_session(self, op, result):
        rows, contradictions = result
        lo, hi = op["window"]
        expected = oracles.ledger_window(op["facts"], lo, hi)
        led, status = self.lib.ledger, self.lib.openbook.InvariantStatus
        state = led.LedgerState()
        for offset, s, rule in op["replay"]:
            state = led.assert_fact(state, offset, status(s), rule)
        replayed = [(k, st.value, rule) for k, st, rule in state.window(lo, hi)]
        return (
            [(k, st.value, rule) for k, st, rule in rows] == expected
            and replayed == expected
            and contradictions == (1 if op["planted"] else 0)
        )


WORKLOADS = {w.name: w for w in (ChainD3, Enumerate, CliMix, Symbolic)}
