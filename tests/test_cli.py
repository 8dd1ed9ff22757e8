"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def world_dir(tmp_path):
    output = tmp_path / "world"
    exit_code = main(
        [
            "generate-world",
            "--output",
            str(output),
            "--seed",
            "5",
            "--tables",
            "4",
            "--noise",
            "wiki",
        ]
    )
    assert exit_code == 0
    return output


class TestGenerateWorld:
    def test_files_written(self, world_dir):
        assert (world_dir / "catalog_full.json").exists()
        assert (world_dir / "catalog_view.json").exists()
        assert (world_dir / "corpus.jsonl").exists()

    def test_corpus_size(self, world_dir):
        lines = (world_dir / "corpus.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_without_tables(self, tmp_path):
        output = tmp_path / "bare"
        assert main(["generate-world", "--output", str(output)]) == 0
        assert not (output / "corpus.jsonl").exists()


class TestAnnotate:
    def test_annotation_output(self, world_dir, tmp_path):
        output = tmp_path / "annotations.json"
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        annotations = json.loads(output.read_text())
        assert len(annotations) == 4
        first = annotations[0]
        assert set(first) == {"table_id", "cells", "columns", "relations"}
        assert any(value is not None for value in first["columns"].values())

    def test_stdout_mode(self, world_dir, capsys):
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)


class TestAnnotateStreaming:
    def test_jsonl_round_trips_with_json_output(self, world_dir, tmp_path):
        """--jsonl streams the same annotations the JSON-array mode writes."""
        json_output = tmp_path / "annotations.json"
        jsonl_output = tmp_path / "annotations.jsonl"
        base_args = [
            "annotate",
            "--catalog",
            str(world_dir / "catalog_view.json"),
            "--corpus",
            str(world_dir / "corpus.jsonl"),
        ]
        assert main(base_args + ["--output", str(json_output)]) == 0
        assert main(base_args + ["--jsonl", "--output", str(jsonl_output)]) == 0
        as_array = json.loads(json_output.read_text())
        as_lines = [
            json.loads(line)
            for line in jsonl_output.read_text().splitlines()
            if line.strip()
        ]
        assert as_lines == as_array

    def test_jsonl_stdout(self, world_dir, capsys):
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--jsonl",
            ]
        )
        assert exit_code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 4
        assert all("table_id" in json.loads(line) for line in lines)


class TestSearchIndex:
    def test_reports_stats_and_writes_annotations(self, world_dir, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        exit_code = main(
            [
                "search-index",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--annotations",
                str(annotations),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "tables: 4" in printed
        assert "annotated_tables: 4" in printed
        lines = annotations.read_text().strip().splitlines()
        assert len(lines) == 4


class TestTrainAndSearch:
    def test_train_then_annotate_with_model(self, world_dir, tmp_path):
        model_path = tmp_path / "model.json"
        exit_code = main(
            [
                "train",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--output",
                str(model_path),
                "--epochs",
                "1",
            ]
        )
        assert exit_code == 0
        assert model_path.exists()
        output = tmp_path / "annotations.json"
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--model",
                str(model_path),
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0

    def test_search(self, world_dir, capsys):
        # find a directed tuple from the full catalog to query for
        from repro.catalog.io import load_catalog_json

        full = load_catalog_json(world_dir / "catalog_full.json")
        director = sorted(full.relations.participating_objects("rel:directed"))[0]
        exit_code = main(
            [
                "search",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--relation",
                "rel:directed",
                "--entity",
                director,
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "answers" in printed


class TestAugment:
    def test_augment_prints_proposals(self, world_dir, capsys):
        exit_code = main(
            [
                "augment",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--min-confidence",
                "0",
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "tuple proposals" in printed

    def test_augment_writes_catalog(self, world_dir, tmp_path):
        from repro.catalog.io import load_catalog_json

        output = tmp_path / "augmented.json"
        exit_code = main(
            [
                "augment",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--min-confidence",
                "0",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        before = load_catalog_json(world_dir / "catalog_view.json")
        after = load_catalog_json(output)
        assert after.stats()["tuples"] >= before.stats()["tuples"]


class TestWireMode:
    def test_wire_lines_are_annotate_responses(self, world_dir, capsys):
        """--wire streams one AnnotateResponse wire payload per table."""
        from repro.api import AnnotateResponse

        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--wire",
            ]
        )
        assert exit_code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 4
        for line in lines:
            response = AnnotateResponse.from_json(json.loads(line))
            assert response.timing_seconds is None

    def test_wire_annotations_match_plain_mode(self, world_dir, tmp_path, capsys):
        json_output = tmp_path / "annotations.json"
        base = [
            "annotate",
            "--catalog",
            str(world_dir / "catalog_view.json"),
            "--corpus",
            str(world_dir / "corpus.jsonl"),
        ]
        assert main(base + ["--output", str(json_output)]) == 0
        capsys.readouterr()
        assert main(base + ["--wire"]) == 0
        wire_lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        plain = json.loads(json_output.read_text())
        assert [entry["annotation"] for entry in wire_lines] == plain


class TestApiErrorExit:
    def test_wire_and_jsonl_mutually_exclusive(self, world_dir, capsys):
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--wire",
                "--jsonl",
            ]
        )
        assert exit_code == 1
        assert "error [validation_error]" in capsys.readouterr().err

    def test_missing_catalog_exits_nonzero(self, tmp_path, capsys):
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(tmp_path / "nope.json"),
                "--corpus",
                str(tmp_path / "nope.jsonl"),
            ]
        )
        assert exit_code == 1
        assert "error [io_error]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["bundle", "info", "--bundle"], ["serve", "--port", "0", "--bundle"]],
    )
    def test_old_bundle_format_prints_error_line(self, tmp_path, command):
        """A bundle error is an API error like any other: one
        ``error [code]: message`` line with the rebuild hint, exit 1, and
        no traceback."""
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format_version": 2}), encoding="utf-8"
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *command, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("error [bundle_version_unsupported]: ")
        assert "rebuild the bundle with `repro bundle build`" in completed.stderr
        assert "Traceback" not in completed.stderr


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_answer_cache_size_flag_reaches_session_config(self):
        # every SessionConfig cache bound has its CLI flag, on both the
        # corpus commands and serve
        from repro.api.config import SessionConfig
        from repro.cli import build_parser

        parser = build_parser()
        for command in (
            ["annotate", "--catalog", "c", "--corpus", "x"],
            ["serve", "--bundle", "b"],
        ):
            args = parser.parse_args([*command, "--answer-cache-size", "7"])
            assert SessionConfig.from_args(args).answer_cache_size == 7
            defaulted = parser.parse_args(command)
            assert SessionConfig.from_args(defaulted).answer_cache_size == (
                SessionConfig().answer_cache_size
            )

    @pytest.mark.parametrize(
        "command",
        [
            ["annotate"],
            ["search", "--relation", "r", "--entity", "e"],
            ["search-index"],
            ["augment"],
            ["bundle", "build", "--output", "b"],
        ],
    )
    def test_corpus_commands_reject_workers(self, command, capsys):
        """``--workers`` counts pre-fork processes, so only ``serve`` has it."""
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--catalog", "c", "--corpus", "x", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestAnnotateStreamedArray:
    def test_output_bytes_match_json_dumps(self, world_dir, tmp_path):
        """The streamed JSON-array writer is byte-identical to json.dumps."""
        output = tmp_path / "annotations.json"
        exit_code = main(
            [
                "annotate",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        text = output.read_text()
        assert text == json.dumps(json.loads(text), indent=1)


class TestBundleAndServeCli:
    @pytest.fixture()
    def bundle_dir(self, world_dir, tmp_path):
        output = tmp_path / "bundle"
        exit_code = main(
            [
                "bundle",
                "build",
                "--catalog",
                str(world_dir / "catalog_view.json"),
                "--corpus",
                str(world_dir / "corpus.jsonl"),
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        return output

    def test_bundle_build_writes_manifest(self, bundle_dir, capsys):
        assert (bundle_dir / "manifest.json").exists()
        assert (bundle_dir / "annotations.jsonl").exists()
        assert (bundle_dir / "indexes" / "lemma.meta.json").exists()

    def test_bundle_info_verifies(self, bundle_dir, capsys):
        exit_code = main(
            ["bundle", "info", "--bundle", str(bundle_dir), "--verify"]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "all file hashes match" in printed
        assert '"format_version"' in printed

    def test_bundle_serves_cli_identical_annotations(
        self, world_dir, bundle_dir, tmp_path
    ):
        """ServeState /annotate == `repro annotate` output, table by table."""
        from repro.pipeline.io import iter_corpus_jsonl
        from repro.serve.bundle import load_bundle
        from repro.serve.state import ServeState

        output = tmp_path / "annotations.json"
        assert (
            main(
                [
                    "annotate",
                    "--catalog",
                    str(world_dir / "catalog_view.json"),
                    "--corpus",
                    str(world_dir / "corpus.jsonl"),
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        cli_annotations = {
            entry["table_id"]: entry for entry in json.loads(output.read_text())
        }
        state = ServeState(load_bundle(bundle_dir))
        for labeled in iter_corpus_jsonl(world_dir / "corpus.jsonl"):
            served = state.annotate_payload({"table": labeled.table.to_dict()})
            assert served["annotation"] == cli_annotations[labeled.table_id]
