"""Tests for the CLI (run in-process with tiny workloads)."""

import pytest

from repro.cli import _top_line, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "figure4" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "agrocyc" in out and "cit-Patents" in out

    def test_tiny_table2_subset(self, capsys):
        rc = main([
            "table2", "--datasets", "kegg", "--queries", "40", "--repeats", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kegg" in out
        assert "DL" in out

    def test_figure3_subset(self, capsys):
        rc = main(["figure3", "--datasets", "reactome", "--repeats", "1"])
        assert rc == 0
        assert "reactome" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--datasets", "nope"])

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["table99"])

    def test_stats_subset(self, capsys):
        assert main(["stats", "--datasets", "kegg,reactome"]) == 0
        out = capsys.readouterr().out
        assert "kegg" in out and "reactome" in out
        assert "avgTC" in out

    def test_verify_subset(self, capsys):
        assert main(["verify", "--datasets", "kegg", "--queries", "60"]) == 0
        out = capsys.readouterr().out
        assert "kegg/DL: ok" in out
        assert "FAIL" not in out

    def test_export_subset(self, capsys, tmp_path):
        out = str(tmp_path / "ds")
        assert main(["export", "--datasets", "reactome", "--out", out]) == 0
        from repro.graph.io import read_edge_list
        from repro.datasets.catalog import load

        g = read_edge_list(tmp_path / "ds" / "reactome.txt")
        assert g == load("reactome")

    def test_ablation_rank_subset(self, capsys):
        assert main(["ablation-rank", "--datasets", "kegg"]) == 0
        out = capsys.readouterr().out
        assert "degree_product" in out

    def test_ablation_labelstore_subset(self, capsys):
        assert main([
            "ablation-labelstore", "--datasets", "kegg", "--queries", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out


class TestArtifactSubcommands:
    """build/query talk through binary artifacts (build → serve split)."""

    def test_build_then_query(self, capsys, tmp_path):
        art = str(tmp_path / "kegg.rpro")
        assert main(["build", "--dataset", "kegg", "--method", "DL", "--out", art]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "bytes" in out

        assert main(["query", "--artifact", art, "--random", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "500 queries" in out
        assert "first query" in out

    def test_query_pairs_file(self, capsys, tmp_path):
        art = str(tmp_path / "kegg.rpro")
        assert main(["build", "--dataset", "kegg", "--out", art]) == 0
        capsys.readouterr()
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n5 9\n3 3\n")
        assert main(["query", "--artifact", art, "--pairs", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert "3 queries" in out

    def test_build_from_edge_list(self, capsys, tmp_path):
        from repro.datasets.catalog import load
        from repro.graph.io import write_edge_list

        edges = str(tmp_path / "g.txt")
        write_edge_list(load("reactome"), edges)
        art = str(tmp_path / "g.rpro")
        assert main(["build", "--edges", edges, "--method", "GL", "--out", art]) == 0
        capsys.readouterr()
        assert main(["query", "--artifact", art, "--random", "200", "--no-mmap"]) == 0
        assert "200 queries" in capsys.readouterr().out

    def test_build_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--dataset", "nope", "--out", str(tmp_path / "x.rpro")])

    def test_query_answers_match_live_pipeline(self, capsys, tmp_path):
        import random as _random

        from repro.datasets.catalog import load
        from repro.facade import Reachability

        art = str(tmp_path / "kegg.rpro")
        assert main(["build", "--dataset", "kegg", "--out", art]) == 0
        capsys.readouterr()
        assert main(["query", "--artifact", art, "--random", "400", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        g = load("kegg")
        r = Reachability(g)
        rng = _random.Random(7)
        pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(400)]
        positives = sum(r.query_batch(pairs))
        assert f"({positives:,} reachable)" in out


class TestQueryStdin:
    def test_pairs_dash_reads_stdin(self, capsys, tmp_path, monkeypatch):
        import io

        art = str(tmp_path / "kegg.rpro")
        assert main(["build", "--dataset", "kegg", "--out", art]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n5 9\n\n3 3\n"))
        assert main(["query", "--artifact", art, "--pairs", "-"]) == 0
        out = capsys.readouterr().out
        assert "3 queries" in out


class TestServeSubcommand:
    def test_serve_until_remote_shutdown(self, tmp_path):
        import threading

        from repro.server import ReachClient
        from repro.serialization import load_artifact

        art = str(tmp_path / "kegg.rpro")
        assert main(["build", "--dataset", "kegg", "--out", art]) == 0
        ready = tmp_path / "ready"
        rc = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main([
                    "serve", "--artifact", art, "--port", "0",
                    "--batch-window", "0.5", "--cache-size", "1024",
                    "--ready-file", str(ready),
                ])
            ),
            daemon=True,
        )
        thread.start()
        for _ in range(200):
            if ready.exists() and ready.read_text().strip():
                break
            import time

            time.sleep(0.05)
        host, port = ready.read_text().split()[:2]

        import random

        direct = load_artifact(art)
        n = direct.stats()["original_n"]
        rng = random.Random(9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        expected = [bool(a) for a in direct.query_batch(pairs)]
        with ReachClient(host, int(port)) as client:
            assert client.query_batch(pairs) == expected
            client.shutdown_server()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert rc == [0]

    def test_serve_requires_artifact(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_http_shutdown_stops_whole_server(self, tmp_path):
        import json
        import threading
        import time
        import urllib.request

        art = str(tmp_path / "kegg.rpro")
        assert main(["build", "--dataset", "kegg", "--out", art]) == 0
        ready = tmp_path / "ready"
        rc = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main([
                    "serve", "--artifact", art, "--port", "0",
                    "--http-port", "0", "--ready-file", str(ready),
                ])
            ),
            daemon=True,
        )
        thread.start()
        for _ in range(200):
            if ready.exists() and len(ready.read_text().split()) == 3:
                break
            time.sleep(0.05)
        host, _port, http_port = ready.read_text().split()
        req = urllib.request.Request(
            f"http://{host}:{http_port}/shutdown", data=b"", method="POST"
        )
        doc = json.loads(urllib.request.urlopen(req).read())
        assert doc["shutting_down"] is True
        thread.join(timeout=15)
        assert not thread.is_alive() and rc == [0]


def _stats_doc(hits, misses, requests):
    """A minimal ``OP_STATS`` document as ``top`` reads it."""
    lookups = hits + misses
    return {
        "epoch": 3,
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        },
        "telemetry": {
            "histograms": {
                "repro_request_seconds": {
                    "count": requests,
                    "sum": requests * 1000,
                    "unit": "ns",
                    "buckets": {"10": requests},
                },
            },
            "gauges": {},
        },
    }


class TestTopLine:
    def test_first_poll_reports_lifetime_rates(self):
        line = _top_line(_stats_doc(30, 10, 100), None, 10.0)
        assert "cache  75.0%" in line
        assert line.lstrip().startswith("10 q/s")

    def test_later_polls_report_the_refresh_window(self):
        prev = _stats_doc(30, 10, 100)
        # lifetime hit rate is now 31/50 = 62%; the window saw 1 of 10
        line = _top_line(_stats_doc(31, 19, 150), prev, 5.0)
        assert "cache  10.0%" in line
        assert "62.0%" not in line
        assert line.lstrip().startswith("10 q/s")

    def test_window_without_lookups_has_no_hit_rate(self):
        doc = _stats_doc(30, 10, 100)
        assert "cache     - |" in _top_line(doc, doc, 5.0)

    def test_missing_sections_render_as_dashes(self):
        line = _top_line({}, None, 1.0)
        assert "p50=- p95=- p99=- p99.9=-" in line
        assert "cache     - |" in line
        assert "epoch - (age -)" in line
        assert "fsync lag -" in line
        # a server without a cache stays ``-`` on later polls too
        assert "cache     - |" in _top_line({}, {}, 1.0)
        assert "cache     - |" in _top_line({}, {"cache": {}}, 1.0)
