"""Integration tests for the repro-mdw command line."""

import io
import json
import sys

import pytest

from repro.cli import main
from repro.storage.snapshot import FORMAT_VERSION


def _legacy_directory(tmp):
    (tmp / "manifest.json").write_text("{}")  # the retired store layout
    return tmp


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "wh.mdws"
    code = main(["generate", str(path), "--scale", "tiny", "--seed", "3", "--with-index"])
    assert code == 0
    return path


class TestGenerate:
    def test_generate_creates_store(self, store_dir, capsys):
        assert store_dir.is_file()  # verified in TestSnapshotFiles

    def test_generate_output(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "wh2"), "--scale", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nodes" in out and "saved to" in out

    def test_generate_extended(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "wh3"), "--scale", "tiny", "--extended"])
        assert code == 0
        assert "log files" in capsys.readouterr().out


class TestStatsValidate:
    def test_stats(self, store_dir, capsys):
        assert main(["stats", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "FACTS" in out and "HIERARCH" in out.upper()

    def test_validate_conformant(self, store_dir, capsys):
        assert main(["validate", str(store_dir)]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "store, message",
        [
            (lambda tmp: tmp / "nope", "No such file"),
            (lambda tmp: tmp, "Is a directory"),
            (_legacy_directory, "Is a directory"),
        ],
        ids=["missing", "directory", "legacy-directory"],
    )
    def test_not_a_snapshot_store_errors(self, store, message, tmp_path, capsys):
        assert main(["stats", str(store(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "migrate" not in err


class TestSearch:
    def test_search_basic(self, store_dir, capsys):
        assert main(["search", str(store_dir), "customer"]) == 0
        out = capsys.readouterr().out
        assert 'Search Results for "customer"' in out

    def test_search_with_synonyms(self, store_dir, capsys):
        assert main(["search", str(store_dir), "client", "--synonyms"]) == 0
        assert "expanded:" in capsys.readouterr().out

    def test_search_area_filter(self, store_dir, capsys):
        assert main(["search", str(store_dir), "customer", "--area", "mart"]) == 0

    def test_search_unknown_class(self, store_dir, capsys):
        assert main(["search", str(store_dir), "x", "--class", "NoSuchClass"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_search_expand_group(self, store_dir, capsys):
        assert main(["search", str(store_dir), "customer", "--expand", "Attribute"]) == 0

    def test_search_bad_regex_exits_2(self, store_dir, capsys):
        assert main(["search", str(store_dir), "(", "--regex"]) == 2
        assert capsys.readouterr().err.startswith("error: search term '('")


class TestLineageFlows:
    def item_name(self, store_dir):
        from repro.core import MetadataWarehouse

        mdw = MetadataWarehouse.attach_snapshot(store_dir)
        results = mdw.search.search("", regex=True)  # matches everything
        # pick an item that has lineage
        for hit in results.hits:
            if mdw.lineage.upstream(hit.instance).max_depth() > 0:
                return hit.name
        return results.hits[0].name

    def test_lineage(self, store_dir, capsys):
        name = self.item_name(store_dir)
        assert main(["lineage", str(store_dir), name]) == 0
        assert "Lineage of" in capsys.readouterr().out

    def test_lineage_downstream_with_condition(self, store_dir, capsys):
        name = self.item_name(store_dir)
        code = main(
            ["lineage", str(store_dir), name, "--direction", "downstream", "--condition", "CH"]
        )
        assert code == 0

    def test_lineage_unknown_item(self, store_dir, capsys):
        assert main(["lineage", str(store_dir), "zzz_nothing"]) == 2
        assert "no item named" in capsys.readouterr().err

    def test_flows(self, store_dir, capsys):
        assert main(["flows", str(store_dir), "--granularity", "2"]) == 0
        assert "SOURCE OBJECTS" in capsys.readouterr().out


UPDATE = (
    "INSERT DATA { cs:cli_added rdf:type dm:Column . "
    'cs:cli_added dm:hasName "cli_added_column" }'
)
FEED = (
    '<metadata source="cli-feed"><class name="Application" world="technical"/>'
    '<instance name="app_gamma" class="Application"/></metadata>'
)


class TestWriteCommands:
    """generate -> write command -> reopen: the store stays one valid
    snapshot file and the change is in it."""

    @pytest.mark.parametrize(
        "write, wrote, read, expected",
        [
            (["index", "{wh}"], "derived", ["snapshot", "info", "{wh}"], '"OWLPRIME"'),
            (["update", "{wh}", "{update}"], "+2 / -0",
             ["search", "{wh}", "cli_added_column"], "1 distinct item(s)"),
            (["snapshot", "historize", "{wh}", "2026.R1"], "version 2026.R1",
             ["versions", "{wh}"], "2026.R1"),
            (["load", "{wh}", "{feed}"], "incremental release apply",
             ["search", "{wh}", "app_gamma"], "1 distinct item(s)"),
        ],
        ids=["index", "update", "snapshot-historize", "load"],
    )
    def test_write_then_reopen(self, write, wrote, read, expected, tmp_path, capsys):
        (tmp_path / "u.ru").write_text(UPDATE)
        (tmp_path / "r.xml").write_text(FEED)
        paths = {
            "wh": tmp_path / "wh.mdws",
            "update": tmp_path / "u.ru",
            "feed": tmp_path / "r.xml",
        }
        assert main(["generate", str(paths["wh"]), "--scale", "tiny"]) == 0
        assert paths["wh"].is_file()
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in write]) == 0
        assert wrote in capsys.readouterr().out
        assert main([arg.format(**paths) for arg in read]) == 0
        assert expected in capsys.readouterr().out
        assert main(["snapshot", "info", str(paths["wh"]), "--verify"]) == 0


class TestIndexHistory:
    def test_index_unknown_rulebase(self, store_dir, capsys):
        assert main(["index", str(store_dir), "--rulebase", "NOPE"]) == 2

    def test_snapshot_duplicate(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        main(["snapshot", "historize", str(path), "R1"])
        assert main(["snapshot", "historize", str(path), "R1"]) == 2

    def test_versions_empty(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        capsys.readouterr()
        main(["versions", str(path)])
        assert "no historized versions" in capsys.readouterr().out


class TestSql:
    SQL = """
    SELECT term FROM TABLE(SEM_MATCH(
        {?o dm:hasName ?term},
        SEM_MODELS('DWH_CURR'),
        SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
    WHERE regexp_like(term, 'customer')
    GROUP BY term
    """

    def test_sql_from_file(self, store_dir, tmp_path, capsys):
        sql_file = tmp_path / "q.sql"
        sql_file.write_text(self.SQL)
        assert main(["sql", str(store_dir), str(sql_file)]) == 0
        out = capsys.readouterr().out
        assert "row(s)" in out

    def test_sql_missing_file(self, store_dir, capsys):
        assert main(["sql", str(store_dir), "/no/such/file.sql"]) == 2

    def test_sql_malformed(self, store_dir, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("SELECT FROM nothing")
        assert main(["sql", str(store_dir), str(bad)]) == 2

    def test_sql_unbound_prefix(self, store_dir, tmp_path, capsys):
        """A pattern prefix no SEM_ALIAS binds is a parse error of the
        statement: ``error: ...`` and exit 2, not a traceback."""
        bad = tmp_path / "unbound.sql"
        bad.write_text(
            "SELECT c FROM TABLE(SEM_MATCH({cs:ci rdf:type ?c}, "
            "SEM_MODELS('DWH_CURR'), null))"
        )
        assert main(["sql", str(store_dir), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestUpdateCommand:
    def test_update_rejecting_nonconformant(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        bad = tmp_path / "bad.ru"
        # an instance -> property edge violates Table I
        bad.write_text(
            "INSERT DATA { cs:x dm:weird dm:hasName . "
            "cs:hasName_marker rdf:type rdf:Property }"
        )
        capsys.readouterr()
        # dm:hasName is untyped in a fresh tiny store... type it first so
        # the violation is real
        typer = tmp_path / "t.ru"
        typer.write_text("INSERT DATA { dm:weirdTarget rdf:type rdf:Property }")
        main(["update", str(path), str(typer)])
        bad.write_text("INSERT DATA { cs:x dm:other dm:weirdTarget }")
        code = main(["update", str(path), str(bad)])
        assert code == 2
        assert "Table I" in capsys.readouterr().err

    def test_update_missing_file(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        assert main(["update", str(path), "/no/such.ru"]) == 2

    def test_update_malformed(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        bad = tmp_path / "bad.ru"
        bad.write_text("UPSERT THINGS")
        assert main(["update", str(path), str(bad)]) == 2


    def test_update_malformed_escape_leaves_the_store(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        before = path.read_bytes()
        bad = tmp_path / "bad.ru"
        bad.write_text('INSERT DATA { cs:x dm:hasName "\\uZZZZ" }')
        capsys.readouterr()
        assert main(["update", str(path), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        assert path.read_bytes() == before


class TestSearchServiceLevelFlags:
    def test_freshness_and_quality_flags(self, tmp_path, capsys):
        path = tmp_path / "wh"
        main(["generate", str(path), "--scale", "tiny"])
        capsys.readouterr()
        assert main(
            ["search", str(path), "id", "--freshness", "daily", "--freshness", "weekly"]
        ) == 0
        out_fresh = capsys.readouterr().out
        assert main(["search", str(path), "id", "--min-quality", "0.9"]) == 0
        out_quality = capsys.readouterr().out
        assert main(["search", str(path), "id"]) == 0
        out_all = capsys.readouterr().out

        def hits(text):
            if "no results" in text:
                return 0
            return int(text.rsplit(" distinct item(s)", 1)[0].rsplit(None, 1)[-1])

        assert hits(out_fresh) <= hits(out_all)
        assert hits(out_quality) <= hits(out_all)


class TestLoad:
    """`repro-mdw load`: complete-release application to a saved store."""

    def write_feed(self, tmp_path, name, items):
        lines = ['<metadata source="cli-feed">']
        lines.append('  <class name="Application" world="technical"/>')
        for item in items:
            lines.append(f'  <instance name="{item}" class="Application"/>')
        lines.append("</metadata>")
        path = tmp_path / name
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    @pytest.fixture
    def wh(self, tmp_path, capsys):
        path = tmp_path / "wh"
        assert main(["generate", str(path), "--scale", "tiny", "--with-index"]) == 0
        capsys.readouterr()
        return path

    def test_full_then_incremental_with_versions(self, wh, tmp_path, capsys):
        r1 = self.write_feed(tmp_path, "r1.xml", ["app_alpha", "app_beta"])
        code = main(
            ["load", str(wh), str(r1), "--full-rebuild", "--version", "2026.R1"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "full release apply" in out

        r2 = self.write_feed(tmp_path, "r2.xml", ["app_alpha", "app_gamma"])
        code = main(["load", str(wh), str(r2), "--version", "2026.R2"])
        out = capsys.readouterr().out
        assert code == 0 and "incremental release apply" in out

        assert main(["versions", str(wh)]) == 0
        out = capsys.readouterr().out
        assert "2026.R1" in out and "2026.R2" in out
        assert main(["search", str(wh), "app_gamma"]) == 0
        assert "app_gamma" in capsys.readouterr().out
        assert main(["search", str(wh), "app_beta"]) == 0
        assert "no results" in capsys.readouterr().out

    def test_reapply_is_noop(self, wh, tmp_path, capsys):
        feed = self.write_feed(tmp_path, "r.xml", ["app_one"])
        assert main(["load", str(wh), str(feed), "--full-rebuild"]) == 0
        capsys.readouterr()
        assert main(["load", str(wh), str(feed)]) == 0
        out = capsys.readouterr().out
        assert "incremental release apply" in out and "+0 / -0" in out

    def test_incremental_and_full_are_exclusive(self, wh, tmp_path, capsys):
        feed = self.write_feed(tmp_path, "r.xml", ["app_one"])
        with pytest.raises(SystemExit):
            main(["load", str(wh), str(feed), "--incremental", "--full-rebuild"])

    def test_missing_feed_file(self, wh, capsys):
        assert main(["load", str(wh), "nope.xml"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_ontology_rejected(self, wh, tmp_path, capsys):
        feed = self.write_feed(tmp_path, "r.xml", ["app_one"])
        bad = tmp_path / "bad.ttl"
        bad.write_text("@prefix ex: <http://x/> .\nex:s ex:p [ ex:q ex:o ] .\n", encoding="utf-8")
        assert main(["load", str(wh), str(feed), "--ontology", str(bad)]) == 2
        assert "anonymous blank nodes" in capsys.readouterr().err

    def test_bad_xml_rejected(self, wh, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("not xml at all", encoding="utf-8")
        assert main(["load", str(wh), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSnapshotFiles:
    def test_info_attach_cycle(self, store_dir, capsys):
        assert main(["snapshot", "info", str(store_dir), "--verify"]) == 0
        out = capsys.readouterr().out
        assert f'"format_version": {FORMAT_VERSION}' in out
        assert '"checksums": "ok"' in out
        # two runs per graph: SPO and POS
        info = json.loads(out)
        runs = [name.rsplit("/", 1)[1] for name in info["sections"] if "/" in name]
        assert sorted(runs) == sorted(["pos", "spo"] * len(info["graphs"]))

        assert main(["snapshot", "attach", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "DWH_CURR" in out

    def test_info_detects_corruption(self, store_dir, tmp_path, capsys):
        snap = tmp_path / "wh.mdws"
        raw = bytearray(store_dir.read_bytes())
        raw[-1] ^= 0xFF
        snap.write_bytes(bytes(raw))
        assert main(["snapshot", "info", str(snap), "--verify"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_attach_missing_file_errors(self, tmp_path, capsys):
        assert main(["snapshot", "attach", str(tmp_path / "nope.mdws")]) == 2
        assert "error:" in capsys.readouterr().err


class TestServe:
    """``serve`` runs blank-line-separated statements from stdin through
    the query service, then prints its metrics and a health line."""

    NAMES = "SELECT ?s ?n WHERE { ?s dm:hasName ?n }"
    HOG = "SELECT * WHERE { ?a dm:hasName ?x . ?b dm:hasName ?y . ?c dm:hasName ?z }"

    def serve(self, monkeypatch, store_dir, statements, *options):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n\n".join(statements)))
        return main(["serve", str(store_dir), *options])

    def test_thread_mode_answers_two_statements(self, store_dir, monkeypatch, capsys):
        assert self.serve(monkeypatch, store_dir, [self.NAMES, TestSql.SQL]) == 0
        out = capsys.readouterr().out
        assert "-- statement 1 (query, " in out and "-- statement 2 (sql, " in out
        assert out.rstrip().endswith("health: healthy")

    @pytest.mark.skipif(sys.platform.startswith("win"), reason="fork start method required")
    def test_supervised_fork_mode_reports_its_workers(self, store_dir, monkeypatch, capsys):
        options = ("--mode", "fork", "--supervise", "--workers", "2")
        assert self.serve(monkeypatch, store_dir, [self.NAMES], *options) == 0
        assert capsys.readouterr().out.rstrip().endswith(
            "health: healthy (supervisor: 2 worker(s) live, 0 restart(s))"
        )

    def test_missed_deadline_exits_2(self, store_dir, monkeypatch, capsys):
        assert self.serve(monkeypatch, store_dir, [self.HOG], "--timeout", "0.05") == 2
        captured = capsys.readouterr()
        assert "-- statement 1: DeadlineExceeded" in captured.out
        assert "1 of 1 statement(s) failed" in captured.err

    @pytest.mark.parametrize("command", ["serve", "workload"])
    def test_supervise_without_fork_is_a_clean_error(
        self, command, store_dir, monkeypatch, capsys
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.NAMES))
        assert main([command, str(store_dir), "--supervise"]) == 2
        assert "supervise requires worker_mode='fork'" in capsys.readouterr().err


class TestExplain:
    def test_analyze_prints_plan_cache_footer_and_profile(self, store_dir, capsys):
        query = "SELECT ?s ?n WHERE { ?s dm:hasName ?n }"
        assert main(["explain", str(store_dir), query, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "BGP (1 pattern(s), planner order" in out
        (footer,) = [line for line in out.splitlines() if line.startswith("PLAN CACHE")]
        assert "replans=" not in footer
        assert "runtime profile" in out

    def test_optional_side_prints_its_bound_variables(self, store_dir, capsys):
        query = "SELECT ?s ?c WHERE { ?s dm:hasName ?n OPTIONAL { ?s rdf:type ?c } }"
        assert main(["explain", str(store_dir), query]) == 0
        out = capsys.readouterr().out
        assert "OPTIONAL (left join)" in out
        assert "bound ?n ?s):" in out

    def test_malformed_escape_exits_2(self, store_dir, capsys):
        query = 'SELECT ?s WHERE { ?s dm:hasName "a\\u00" }'
        assert main(["explain", str(store_dir), query]) == 2
        assert "error:" in capsys.readouterr().err
