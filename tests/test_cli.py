"""CLI behaviour: subcommands, JSON output, exit codes, catalogs, caching."""

import concurrent.futures
import json
import runpy
import sys
import time
from pathlib import Path

import pytest

from pickylab import cli, subnorm
from pickylab.cli import (
    EXIT_DEFECT,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SKIPPED,
    load_catalog,
    run,
    run_batch,
)
from pickylab.config import DEGREE_BOUND
from pickylab.errors import EngineDefect, ParseError, ScaleExceeded


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_check_all_s4_p2(self, capsys):
        code, out, _ = invoke(capsys, "check", "all", "S:4", "-p", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["format"] == 1
        assert all(r["status"] == "holds" for r in data["reports"])
        names = [r["check"] for r in data["reports"]]
        assert names.count("picky_conjecture") == 3

    def test_single_check_with_variant(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "picky_conjecture", "S:4", "-p", "2", "--variant", "strong"
        )
        assert code == EXIT_OK
        (report,) = json.loads(out)["reports"]
        assert report["witnesses"]["variant"] == "strong"

    def test_skipped_gives_exit_3(self, capsys):
        code, out, _ = invoke(capsys, "check", "alperin_c", "S:4", "-p", "2")
        assert code == EXIT_SKIPPED
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "skipped"

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "check", "nope", "S:4", "-p", "2")
        assert code == EXIT_ERROR and "unknown check" in err


class TestStructureCommands:
    def test_table_s3(self, capsys):
        code, out, _ = invoke(capsys, "table", "S:3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["degrees"] == [1, 1, 2]
        assert data["values"][2] == ["c_1(0:2)", "c_1()", "c_1(0:-1)"]

    def test_blocks_s3_p2(self, capsys):
        code, out, _ = invoke(capsys, "blocks", "S:3", "-p", "2")
        data = json.loads(out)
        assert code == EXIT_OK
        assert [b["defect"] for b in data["blocks"]] == [1, 0]

    def test_sylow(self, capsys):
        code, out, _ = invoke(capsys, "sylow", "S:4", "-p", "2")
        data = json.loads(out)
        assert data["order"] == 8 and data["count"] == 3
        assert data["generators"] == ["(1,2)", "(3,4)", "(1,3)(2,4)"]

    def test_picky(self, capsys):
        code, out, _ = invoke(capsys, "picky", "S:4", "-p", "2")
        data = json.loads(out)
        by_el = {c["element"]: c for c in data["classes"]}
        assert by_el["(1,2,3,4)"]["is_picky"] is True
        assert by_el["(1,2)(3,4)"]["is_picky"] is False
        assert by_el["(1,2)(3,4)"]["sylow_count"] == 3

    def test_subnormalizer(self, capsys):
        code, out, _ = invoke(capsys, "subnormalizer", "S:4", "-x", "(1,2,3,4)")
        data = json.loads(out)
        assert data["subgroup_order"] == 8
        assert data["subgroup_generators"] == ["(2,4)", "(1,2)(3,4)"]
        assert data["picky_report"]["is_picky"] is True

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["subnormalizer", "S:4", "-x", "(1,2,3,4)"],
                '{"element":"(1,2,3,4)","element_order":4,"format":1,"picky_report":'
                '{"element":"(1,2,3,4)","is_picky":true,"normalizer_order":8,"prime":2,'
                '"subnormalizer_order":8,"sylow_count":1},"set_size":8,'
                '"subgroup_generators":["(2,4)","(1,2)(3,4)"],"subgroup_order":8}',
            ),
            (
                ["subnormalizer", "S:6", "-x", "(1,2)(3,4,5)"],
                '{"element":"(1,2)(3,4,5)","element_order":6,"format":1,"set_size":12,'
                '"subgroup_generators":["(4,5)","(3,4)","(1,2)"],"subgroup_order":12}',
            ),
            (
                ["sylow", "A:7", "-p", "2"],
                '{"count":315,"format":1,"generators":["(1,4)(2,3)","(1,2)(3,4)","(3,4)(5,6)"],'
                '"normalizer_order":8,"order":8,"prime":2}',
            ),
            (
                ["picky", "A:7", "-p", "2"],
                '{"classes":[{"element":"(4,5)(6,7)","is_picky":false,"normalizer_order":8,'
                '"prime":2,"subnormalizer_order":2520,"sylow_count":15},'
                '{"element":"(2,3)(4,5,6,7)","is_picky":true,"normalizer_order":8,"prime":2,'
                '"subnormalizer_order":8,"sylow_count":1}],"format":1,"prime":2}',
            ),
            (
                # Above ENUM_BOUND, so without classes: the Sylow orbit alone.
                ["sylow", "S:9", "-p", "2"],
                '{"count":2835,"format":1,"generators":["(5,7)","(3,4,6,8)","(1,2)",'
                '"(1,5)(2,7)(3,6)(4,8)","(1,5)(2,7)(3,6)","(1,4,2,8)(3,7,6,5)"],'
                '"normalizer_order":128,"order":128,"prime":2}',
            ),
        ],
    )
    def test_local_structure_output_is_pinned(self, capsys, argv, want):
        # Byte for byte: the Sylow subgroup printed depends on the chain's
        # element order, and the subnormalizer's generators on the order in
        # which the sorted members enlarge its chain.
        code, out, _ = invoke(capsys, *argv)
        assert code == EXIT_OK
        assert out == want + "\n"

    @pytest.mark.parametrize(
        "group, element, want",
        [
            # The identity: its one double coset N_G(<x>) x N_G(<x>) is G.
            (
                "S:3", "()",
                '{"element":"()","element_order":1,"format":1,"set_size":6,'
                '"subgroup_generators":["(2,3)","(1,2)"],"subgroup_order":6}',
            ),
            # Degree 1: the trivial group, with no generators.
            (
                "C:1", "()",
                '{"element":"()","element_order":1,"format":1,"set_size":1,'
                '"subgroup_generators":[],"subgroup_order":1}',
            ),
            (
                "S:1", "()",
                '{"element":"()","element_order":1,"format":1,"set_size":1,'
                '"subgroup_generators":[],"subgroup_order":1}',
            ),
            # Elements of two primes: one filter test per prime.
            (
                "C:6", "(1,2,3,4,5,6)",
                '{"element":"(1,2,3,4,5,6)","element_order":6,"format":1,"set_size":6,'
                '"subgroup_generators":["(1,2,3,4,5,6)"],"subgroup_order":6}',
            ),
            (
                "S:5", "(1,2)(3,4,5)",
                '{"element":"(1,2)(3,4,5)","element_order":6,"format":1,"set_size":12,'
                '"subgroup_generators":["(4,5)","(3,4)","(1,2)"],"subgroup_order":12}',
            ),
        ],
    )
    def test_subnormalizer_edge_cases_are_pinned(self, capsys, group, element, want):
        # The printed generators are those of the walk over the sorted
        # members, whatever generators the scan's own Sub_G(x) carries.
        code, out, _ = invoke(capsys, "subnormalizer", group, "-x", element)
        assert code == EXIT_OK
        assert out == want + "\n"

    def test_subnormalizer_scans_once(self, capsys, monkeypatch):
        scans = []
        scan = subnorm._scan_subnormalizer

        def counting(G, x):
            scans.append(x.cycle_string())
            return scan(G, x)

        monkeypatch.setattr(subnorm, "_scan_subnormalizer", counting)
        code, out, _ = invoke(capsys, "subnormalizer", "S:4", "-x", "(1,2,3,4)")
        assert code == EXIT_OK
        assert scans == ["(1,2,3,4)"]
        assert json.loads(out)["set_size"] == 8

    def test_table1(self, capsys):
        code, out, _ = invoke(capsys, "table1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["verdict"] == "equal"
        assert data["signed_verdict"] == "equal"
        assert data["total_nonvanishing"] == 152

    def test_table1_csv(self, capsys):
        code, out, _ = invoke(capsys, "table1", "--csv")
        lines = out.splitlines()
        assert lines[0] == "value,two_part,multiplicity"
        assert "1,1,4" in lines[1]

    def test_pretty_and_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(capsys, "table", "S:3", "--pretty", "--out", str(target))
        assert code == EXIT_OK and out == ""
        data = json.loads(target.read_text())
        assert data["degrees"] == [1, 1, 2]


class TestErrors:
    def test_unknown_group(self, capsys):
        code, _, err = invoke(capsys, "table", "X:9")
        assert code == EXIT_ERROR and "unknown group source" in err

    REFUSED = {
        "A:0": "A:n needs n >= 1",
        "S:0": "S:n needs n >= 1",
        "C:0": "C:n needs n >= 1",
        "D:5": "D:m needs an even order m >= 6",
        "wr:S:0~C:2": "S:n needs n >= 1",
    }

    @pytest.mark.parametrize("source", list(REFUSED))
    def test_empty_named_group_is_refused(self, capsys, source):
        """A source shaped like a named constructor reports the
        constructor's own refusal; it is never retried as a file."""
        code, out, err = invoke(capsys, "table", source)
        assert code == EXIT_ERROR == 2
        assert out == "" and self.REFUSED[source] in err
        assert "unknown group source" not in err

    def test_malformed_permutation(self, capsys):
        code, _, err = invoke(capsys, "subnormalizer", "S:4", "-x", "(1,2")
        assert code == EXIT_ERROR

    def test_engine_defect_has_its_own_exit_code(self, capsys, monkeypatch):
        def defect(args):
            raise EngineDefect("two computation paths disagree")

        monkeypatch.setattr(cli, "_cmd_table", defect)
        code, out, err = invoke(capsys, "table", "S:3")
        assert code == EXIT_DEFECT == 4
        assert out == ""
        assert "two computation paths disagree" in err

    @pytest.mark.parametrize("prime", ["1", "0", "4", "-2", "x"])
    @pytest.mark.parametrize(
        "command",
        [
            ["blocks", "S:4"],
            ["sylow", "S:4"],
            ["picky", "S:4"],
            ["check", "kb_principal", "S:4"],
            ["check", "all", "S:4"],
        ],
    )
    def test_non_prime_p_is_usage_error(self, capsys, command, prime):
        code, out, err = invoke(capsys, *command, "-p", prime)
        assert code == EXIT_ERROR and out == ""
        assert f"{prime!r} is not a prime" in err

    @pytest.mark.parametrize("command", ["blocks", "sylow"])
    def test_large_prime_p_is_decided_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, command, "S:4", "-p", str(2**61 - 1))
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert json.loads(out)["prime"] == 2**61 - 1

    def test_prime_beyond_the_deterministic_bound_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "blocks", "S:4", "-p", "3317044064679887385961981")
        assert code == EXIT_ERROR and out == ""
        assert "not decided" in err

    @pytest.mark.parametrize(
        "argv", [["table", "S:3"], ["blocks", "S:3", "-p", "2"], ["sylow", "S:4", "-p", "2"]]
    )
    def test_timings_only_where_reports_are_timed(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--timings")
        assert code == EXIT_ERROR and out == ""
        assert "unrecognized arguments: --timings" in err

    def test_element_outside_group(self, capsys):
        code, _, err = invoke(capsys, "subnormalizer", "A:4", "-x", "(1,2)")
        assert code == EXIT_ERROR

    def test_too_large_group_refused_fast(self, capsys):
        # The bound is seen on a chain stopped just past it, long before
        # S150's full chain could be built.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "table", "S:150")
        assert time.perf_counter() - start < 1
        assert code == EXIT_ERROR and out == ""
        assert "table bound 50000" in err

    def test_check_all_on_too_large_group_refused_fast(self, capsys):
        # ito_michler, the first check, asks for the table before sylow_data,
        # whose bound (10!) lies far above the table bound.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "check", "all", "S:150", "-p", "2")
        assert time.perf_counter() - start < 1
        assert code == EXIT_ERROR and out == ""
        assert "table bound 50000" in err

    def test_sylow_on_too_large_group_refused_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "sylow", "S:150", "-p", "2")
        assert time.perf_counter() - start < 1
        assert code == EXIT_ERROR and out == ""
        assert "sylow bound 3628800" in err

    def test_too_large_degree_refused_before_any_work(self, capsys, tmp_path):
        n = DEGREE_BOUND + 1
        gens = tmp_path / "wide.gens"
        gens.write_text(f"(1,{n})\n")
        catalog = tmp_path / "wide.json"
        catalog.write_text(json.dumps({"format": 1, "entries": [{"label": "G", "source": f"S:{n}"}]}))
        for argv in (["table", f"S:{n}"], ["sylow", str(gens), "-p", "2"], ["batch", str(catalog)]):
            code, out, err = invoke(capsys, *argv)
            assert code == EXIT_ERROR and out == "", argv
            assert f"degree {n} exceeds the degree bound {DEGREE_BOUND}" in err, argv


class TestCatalog:
    def test_bundled_catalogs_load(self):
        small = load_catalog("small")
        assert {e.label for e in small} >= {"S4", "Q8", "F21", "SL23"}
        full = load_catalog("full")
        assert {e.label for e in full} >= {"S7", "A7", "S4wrC2"}

    def test_generator_file_entries_build(self):
        entries = {e.label: e for e in load_catalog("small")}
        assert entries["F21"].build().order == 21
        assert entries["SL23"].build().order == 24

    def test_duplicate_label_rejected(self, tmp_path):
        cat = tmp_path / "bad.json"
        cat.write_text(
            json.dumps(
                {
                    "format": 1,
                    "entries": [
                        {"label": "X", "source": "S:3"},
                        {"label": "X", "source": "S:4"},
                    ],
                }
            )
        )
        with pytest.raises(ParseError, match="duplicate label"):
            load_catalog(str(cat))

    def test_duplicate_prime_rejected(self, tmp_path):
        # A repeated prime would run every check at it twice.
        cat = tmp_path / "bad.json"
        entries = [{"label": "S4", "source": "S:4", "primes": [2, 3]}]
        entries.append({"label": "X", "source": "S:4", "primes": [2, 3, 2]})
        cat.write_text(json.dumps({"format": 1, "entries": entries}))
        with pytest.raises(ParseError, match=r"entries\[1\]\.primes: duplicate prime 2$"):
            load_catalog(str(cat))

    def test_schema_diagnostics(self, tmp_path):
        cases = [
            ({"format": 2, "entries": []}, "format"),
            ({"format": 1, "entries": [{"label": "A"}]}, "source"),
            ({"format": 1, "entries": [{"label": "A", "source": "S:3", "primes": [4]}]}, "prime"),
            (
                {
                    "format": 1,
                    "entries": [
                        {"label": "A", "source": "S:3", "primes": [3317044064679887385961981]}
                    ],
                },
                "not decided",
            ),
        ]
        for payload, needle in cases:
            cat = tmp_path / "bad.json"
            cat.write_text(json.dumps(payload))
            with pytest.raises(ParseError, match=needle):
                load_catalog(str(cat))

    def test_refused_named_source_reports_the_constructor(self, tmp_path):
        cat = tmp_path / "bad.json"
        for source, needle in [
            ("A:0", r"entries\[0\]\.source: A:n needs n >= 1"),
            ("wr:D:5~C:2", r"entries\[0\]\.source: D:m needs an even order m >= 6"),
            ("X:9", r"entries\[0\]\.source: cannot read 'X:9'"),
        ]:
            cat.write_text(json.dumps({"format": 1, "entries": [{"label": "G", "source": source}]}))
            with pytest.raises(ParseError, match=needle):
                load_catalog(str(cat))
        cat.write_text(
            json.dumps({"format": 1, "entries": [{"label": "G", "source": f"C:{DEGREE_BOUND + 1}"}]})
        )
        with pytest.raises(ScaleExceeded, match=r"entries\[0\]\.source: degree \d+ exceeds"):
            load_catalog(str(cat))

    def test_large_prime_is_decided_at_once(self, tmp_path):
        cat = tmp_path / "large.json"
        cat.write_text(
            json.dumps(
                {"format": 1, "entries": [{"label": "A", "source": "S:3", "primes": [2**61 - 1]}]}
            )
        )
        start = time.perf_counter()
        (entry,) = load_catalog(str(cat))
        assert time.perf_counter() - start < 1
        assert entry.primes == [2**61 - 1]

    def test_batch_cli_error_exit(self, capsys, tmp_path):
        cat = tmp_path / "bad.json"
        cat.write_text("{not json")
        code, _, err = invoke(capsys, "batch", str(cat))
        assert code == EXIT_ERROR


class TestBatch:
    @pytest.fixture()
    def tiny_catalog(self, tmp_path):
        cat = tmp_path / "tiny.json"
        cat.write_text(
            json.dumps(
                {
                    "format": 1,
                    "entries": [
                        {"label": "S3", "source": "S:3"},
                        {"label": "Q8", "source": "Q:8", "primes": [2]},
                    ],
                }
            )
        )
        return str(cat)

    def test_batch_runs_and_aggregates(self, tiny_catalog):
        out = run_batch(tiny_catalog)
        labels = {r["group"] for r in out["reports"]}
        assert labels == {"S3", "Q8"}
        assert all(r["status"] == "holds" for r in out["reports"])

    def test_batch_deterministic(self, tiny_catalog):
        a = json.dumps(run_batch(tiny_catalog), sort_keys=True)
        b = json.dumps(run_batch(tiny_catalog), sort_keys=True)
        assert a == b

    def test_jobs_equals_sequential(self, tiny_catalog):
        seq = json.dumps(run_batch(tiny_catalog, jobs=1), sort_keys=True)
        par = json.dumps(run_batch(tiny_catalog, jobs=2), sort_keys=True)
        assert seq == par

    def test_cache_roundtrip(self, tiny_catalog, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("PICKYLAB_CACHE", str(cache))
        first = run_batch(tiny_catalog)
        assert cache.exists() and any(cache.iterdir())
        second = run_batch(tiny_catalog)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        # corrupt every cache entry: results must still be correct
        for f in cache.iterdir():
            f.write_text("{broken")
        third = run_batch(tiny_catalog)
        assert json.dumps(first, sort_keys=True) == json.dumps(third, sort_keys=True)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda report: "not a list",
            lambda report: [],
            lambda report: [dict(r, group="Other") for r in report],
        ],
        ids=["string", "empty", "other-label"],
    )
    def test_tampered_reports_are_misses(self, tiny_catalog, tmp_path, monkeypatch, tamper):
        """An entry whose meta matches but whose reports are not a nonempty
        list of this label's reports at this prime is recomputed and
        rewritten."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("PICKYLAB_CACHE", str(cache))
        cold = json.dumps(run_batch(tiny_catalog), sort_keys=True)
        written = {f: f.read_text() for f in cache.iterdir()}
        for f in written:
            stored = json.loads(f.read_text())
            stored["report"] = tamper(stored["report"])
            f.write_text(json.dumps(stored))
        assert json.dumps(run_batch(tiny_catalog), sort_keys=True) == cold
        assert {f: f.read_text() for f in cache.iterdir()} == written

    @pytest.fixture()
    def pools(self, monkeypatch):
        """The max_workers of every pool run_batch starts; the fake pool
        maps in this process.  run_batch imports ProcessPoolExecutor from
        concurrent.futures only when it starts a pool, so the fake replaces
        it there."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return started

    def test_pool_has_no_more_workers_than_entries(self, capsys, tiny_catalog, pools):
        sequential = run_batch(tiny_catalog)
        assert pools == []
        assert run_batch(tiny_catalog, jobs=64) == sequential
        code, out, _ = invoke(capsys, "batch", tiny_catalog, "--jobs", "64")
        assert code == EXIT_OK and json.loads(out) == sequential
        assert pools == [2, 2]

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, tiny_catalog, pools, jobs):
        code, out, err = invoke(capsys, "batch", tiny_catalog, "--jobs", jobs)
        assert code == EXIT_ERROR and out == ""
        assert "--jobs" in err
        assert pools == []

    def test_sweep_script_refuses_jobs_below_one(self, capsys, monkeypatch, tiny_catalog, pools):
        # The script takes cli's --jobs type: the same usage error and exit
        # code as `pickylab batch --jobs 0`, and no batch run.
        _, _, batch_err = invoke(capsys, "batch", tiny_catalog, "--jobs", "0")
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog_sweep.py"
        argv = [str(script), "--catalog", tiny_catalog, "--jobs", "0"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(script), run_name="__main__")
        captured = capsys.readouterr()
        assert exited.value.code == EXIT_ERROR and captured.out == ""
        assert captured.err.startswith("usage:")
        message = "argument --jobs: '0' is not a worker count of at least 1"
        assert captured.err.rstrip().endswith(message) and batch_err.rstrip().endswith(message)
        assert pools == []

    def test_check_and_batch_take_timings(self, capsys, tiny_catalog):
        for argv in (["check", "mckay", "S:3", "-p", "2"], ["batch", tiny_catalog]):
            code, out, _ = invoke(capsys, *argv, "--timings")
            assert code == EXIT_OK
            assert all("runtime_ms" in r for r in json.loads(out)["reports"])

    def test_timings_bypass_a_warm_cache(self, tiny_catalog, tmp_path, monkeypatch):
        monkeypatch.setenv("PICKYLAB_CACHE", str(tmp_path / "cache"))
        cold = run_batch(tiny_catalog)
        assert all("runtime_ms" not in r for r in cold["reports"])
        timed = run_batch(tiny_catalog, timings=True)
        assert all("runtime_ms" in r for r in timed["reports"])
        for r in timed["reports"]:
            del r["runtime_ms"]
        assert json.dumps(timed, sort_keys=True) == json.dumps(cold, sort_keys=True)

    def test_no_cache_key_without_a_cache(self, tiny_catalog, tmp_path, monkeypatch):
        """A key is built only where it is read: with no cache directory
        and with --timings, run_batch never calls _cache_key."""

        def refused(*args):
            raise AssertionError("a cache key was built")

        cache = tmp_path / "cache"
        want = run_batch(tiny_catalog)
        monkeypatch.setattr(cli, "_cache_key", refused)
        monkeypatch.delenv("PICKYLAB_CACHE", raising=False)
        assert run_batch(tiny_catalog) == want
        monkeypatch.setenv("PICKYLAB_CACHE", str(cache))
        assert len(run_batch(tiny_catalog, timings=True)["reports"]) == len(want["reports"])
        assert not cache.exists()

    def test_cache_keeps_labels_apart(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PICKYLAB_CACHE", str(tmp_path / "cache"))
        for label in ("First", "Second"):
            cat = tmp_path / f"{label}.json"
            cat.write_text(
                json.dumps({"format": 1, "entries": [{"label": label, "source": "S:3"}]})
            )
            out = run_batch(str(cat))
            assert {r["group"] for r in out["reports"]} == {label}


class TestCacheEntries:
    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        d = tmp_path / "cache"
        monkeypatch.setenv("PICKYLAB_CACHE", str(d))
        return d

    def test_every_meta_field_is_revalidated(self, cache):
        from pickylab.permgroup import named_group

        G = named_group("S:4")
        report = [{"check": "stub", "group": "S4", "prime": 2}]
        cli._cache_store("k", G, 2, report)
        entry = cache / "k.json"
        stored = json.loads(entry.read_text())
        assert set(stored["meta"]) == {"order", "class_count", "sylow_order"}
        assert cli._cache_load("k", G, 2, "S4") == report
        for field in stored["meta"]:
            tampered = json.loads(json.dumps(stored))
            tampered["meta"][field] += 1
            entry.write_text(json.dumps(tampered))
            assert cli._cache_load("k", G, 2, "S4") is None, field
        entry.write_text(json.dumps(stored))
        assert cli._cache_load("k", G, 2, "S4") == report

    def test_cache_keys_are_pinned(self):
        """A change to the key's payload or hash turns every stored report
        into a miss.  These are the keys of engine version 0.1.0."""
        (entry,) = [e for e in load_catalog("small") if e.label == "S4"]
        G = entry.build()
        assert {p: cli._cache_key(entry, G, p, "all", "all") for p in (2, 3)} == {
            2: "a82c5492405e83c1e40a5296ab82882a94e69a8f94d27d9429885c75d02c8e1c",
            3: "834e8024984e792e7be3fade2e00f358480b5fadd0755690f1dd7c0399a3fe66",
        }

    def test_failed_write_leaves_nothing_behind(self, cache, monkeypatch):
        from pickylab.permgroup import named_group

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            cli._cache_store("k", named_group("S:3"), 3, [{"check": "stub"}])
        assert list(cache.iterdir()) == []
