"""Tests for the ``xarch`` command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import main
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.xmltree import parse_file, write_file


@pytest.fixture
def workspace(tmp_path):
    os.makedirs(tmp_path, exist_ok=True)
    keys = tmp_path / "keys.txt"
    keys.write_text(COMPANY_KEY_TEXT, encoding="utf-8")
    for number, version in enumerate(company_versions(), start=1):
        write_file(version, str(tmp_path / f"v{number}.xml"))
    return tmp_path


def run(*argv) -> int:
    return main([str(part) for part in argv])


class TestInitAdd:
    def test_init_creates_archive_and_keys(self, workspace):
        archive = workspace / "archive.xml"
        assert run("init", archive, "--keys", workspace / "keys.txt") == 0
        assert archive.exists()
        assert (workspace / "archive.xml.keys").exists()

    def test_init_refuses_overwrite(self, workspace):
        archive = workspace / "archive.xml"
        run("init", archive, "--keys", workspace / "keys.txt")
        with pytest.raises(SystemExit):
            run("init", archive, "--keys", workspace / "keys.txt")

    def test_init_force(self, workspace, capsys):
        archive = workspace / "archive.xml"
        run("init", archive, "--keys", workspace / "keys.txt")
        run("add", archive, workspace / "v1.xml")
        assert run("init", archive, "--keys", workspace / "keys.txt", "--force") == 0
        capsys.readouterr()
        # --force reinitializes the archive; it does not adopt the old one.
        assert run("stats", archive) == 0
        assert "versions:           0" in capsys.readouterr().out

    def test_add_versions(self, workspace, capsys):
        archive = workspace / "archive.xml"
        run("init", archive, "--keys", workspace / "keys.txt")
        code = run(
            "add", archive,
            workspace / "v1.xml", workspace / "v2.xml",
            workspace / "v3.xml", workspace / "v4.xml",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "version 4" in out


@pytest.fixture
def loaded(workspace):
    archive = workspace / "archive.xml"
    run("init", archive, "--keys", workspace / "keys.txt")
    run(
        "add", archive,
        workspace / "v1.xml", workspace / "v2.xml",
        workspace / "v3.xml", workspace / "v4.xml",
    )
    return archive


class TestQueries:
    def test_get_to_file(self, loaded, tmp_path):
        out = tmp_path / "out.xml"
        assert run("get", loaded, "3", "-o", out) == 0
        document = parse_file(str(out))
        assert len(document.find_all("dept")) == 2

    def test_get_to_stdout(self, loaded, capsys):
        assert run("get", loaded, "1") == 0
        assert "<name>finance</name>" in capsys.readouterr().out

    def test_log(self, loaded, capsys):
        code = run(
            "log", loaded, "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        )
        assert code == 0
        assert "3-4" in capsys.readouterr().out

    def test_log_missing_element_clean_error(self, loaded, capsys):
        assert run("log", loaded, "/db/dept[name=hr]") == 1
        assert "xarch:" in capsys.readouterr().err

    def test_diff(self, loaded, capsys):
        assert run("diff", loaded, "3", "4") == 0
        out = capsys.readouterr().out
        assert "deleted /db/dept[name=marketing]" in out
        assert "changed" in out

    def test_stats(self, loaded, capsys):
        assert run("stats", loaded) == 0
        out = capsys.readouterr().out
        assert "versions:           4" in out


class TestIngest:
    def test_ingest_directory_creates_and_fills_archive(self, workspace, capsys):
        snapshots = workspace / "snapshots"
        os.makedirs(snapshots)
        for number, version in enumerate(company_versions(), start=1):
            write_file(version, str(snapshots / f"v{number:03d}.xml"))
        archive = workspace / "batch.xml"
        code = run("ingest", archive, snapshots, "--keys", workspace / "keys.txt")
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 4 versions" in out
        assert archive.exists()
        assert (workspace / "batch.xml.keys").exists()
        assert run("get", archive, "3") == 0

    def test_ingest_matches_add_loop(self, workspace):
        batch = workspace / "batch.xml"
        run(
            "ingest", batch,
            workspace / "v1.xml", workspace / "v2.xml",
            workspace / "v3.xml", workspace / "v4.xml",
            "--keys", workspace / "keys.txt",
        )
        loop = workspace / "loop.xml"
        run("init", loop, "--keys", workspace / "keys.txt")
        run(
            "add", loop,
            workspace / "v1.xml", workspace / "v2.xml",
            workspace / "v3.xml", workspace / "v4.xml",
        )
        assert batch.read_text() == loop.read_text()

    def test_ingest_into_existing_archive(self, loaded, workspace, capsys):
        code = run("ingest", loaded, workspace / "v4.xml")
        assert code == 0
        out = capsys.readouterr().out
        assert "version 5" in out
        assert run("get", loaded, "5") == 0

    def test_ingest_reports_kept_records(self, workspace, capsys):
        archive = workspace / "batch.xml"
        code = run(
            "ingest", archive,
            workspace / "v3.xml", workspace / "v3.xml",
            "--keys", workspace / "keys.txt",
        )
        assert code == 0
        out = capsys.readouterr().out
        # Both departments of the repeated version are confirmed.
        assert "as version 2 (visited " in out and ", kept 2 records / " in out
        assert " 2 records kept (" in out

    def test_compaction_archive_is_self_describing(self, workspace, capsys):
        """An archive written with --compaction must be read correctly
        by later invocations that do not repeat the flag: the storage
        form travels inside the archive file."""
        archive = workspace / "weave.xml"
        run(
            "ingest", archive, workspace / "v1.xml", workspace / "v2.xml",
            "--keys", workspace / "keys.txt", "--compaction",
        )
        capsys.readouterr()
        # Retrieval without the flag decodes the weaves...
        assert run("get", archive, "2") == 0
        out = capsys.readouterr().out
        assert "<fn>Jane</fn>" in out
        assert "weave-text" not in out
        # ...and a follow-up ingest without the flag merges, not corrupts.
        assert run("ingest", archive, workspace / "v3.xml") == 0
        capsys.readouterr()
        assert run("get", archive, "3") == 0
        out = capsys.readouterr().out
        assert "<sal>90K</sal>" in out
        assert "weave-text" not in out

    def test_ingest_missing_archive_without_keys(self, workspace):
        with pytest.raises(SystemExit):
            run("ingest", workspace / "absent.xml", workspace / "v1.xml")

    def test_ingest_empty_directory(self, workspace):
        empty = workspace / "empty"
        os.makedirs(empty)
        with pytest.raises(SystemExit):
            run("ingest", workspace / "batch.xml", empty,
                "--keys", workspace / "keys.txt")


class TestBackends:
    """Every subcommand must work identically on all three backends,
    auto-detected from the archive's manifest (regression: ``xarch
    log``/``diff`` previously could not target chunked or external
    archives at all)."""

    @pytest.fixture(params=["file", "chunked", "external"])
    def backend_archive(self, request, workspace):
        name = "archive.xml" if request.param == "file" else "archive.d"
        archive = workspace / name
        assert (
            run(
                "init", archive, "--keys", workspace / "keys.txt",
                "--backend", request.param,
            )
            == 0
        )
        assert (
            run(
                "add", archive,
                workspace / "v1.xml", workspace / "v2.xml",
                workspace / "v3.xml", workspace / "v4.xml",
            )
            == 0
        )
        return request.param, archive

    def test_get(self, backend_archive, capsys):
        _, archive = backend_archive
        assert run("get", archive, "1") == 0
        assert "<name>finance</name>" in capsys.readouterr().out

    def test_log(self, backend_archive, capsys):
        _, archive = backend_archive
        code = run(
            "log", archive, "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        )
        assert code == 0
        assert "3-4" in capsys.readouterr().out

    def test_log_missing_element_clean_error(self, backend_archive, capsys):
        _, archive = backend_archive
        assert run("log", archive, "/db/dept[name=hr]") == 1
        assert "xarch:" in capsys.readouterr().err

    def test_diff(self, backend_archive, workspace, capsys):
        """Every backend prints the report the file backend prints,
        byte for byte: the same changes in the same (key) order."""
        _, archive = backend_archive
        assert run("diff", archive, "3", "4") == 0
        out = capsys.readouterr().out
        assert "deleted /db/dept[name=marketing]" in out
        assert "changed" in out
        reference = workspace / "reference.xml"
        assert run("init", reference, "--keys", workspace / "keys.txt") == 0
        assert run("add", reference, *(workspace / f"v{n}.xml" for n in range(1, 5))) == 0
        capsys.readouterr()
        assert run("diff", reference, "3", "4") == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("kind", ["file", "chunked", "external"])
    def test_every_backend_reports_each_version_merged(
        self, workspace, capsys, kind
    ):
        """``add`` and ``ingest`` print one line of merge stats per
        version, in order, on every backend."""
        archive = workspace / ("reported.xml" if kind == "file" else "reported.d")
        versions = [workspace / f"v{n}.xml" for n in (1, 2, 3, 3)]
        code = run(
            "ingest", archive, *versions[:2],
            "--keys", workspace / "keys.txt", "--backend", kind,
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[2].startswith("ingested 2 versions")
        for number, line in enumerate(lines[:2], start=1):
            assert line.startswith(
                f"merged {versions[number - 1]} as version {number} (visited "
            )
        assert run("add", archive, *versions[2:]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            f"merged {versions[2]} as version 3",
            f"merged {versions[3]} as version 4",
        ]
        assert "(matched " in lines[0]
        assert lines[1].endswith(", inserted 0, content changes 0)")
        if kind != "external":  # the record memo confirms both departments
            assert " of them in 2 kept records, " in lines[1]

    def test_stats(self, backend_archive, capsys):
        kind, archive = backend_archive
        assert run("stats", archive) == 0
        out = capsys.readouterr().out
        assert f"backend:            {kind}" in out
        assert "versions:           4" in out

    def test_ingest_creates_backend(self, workspace, capsys):
        for kind in ("chunked", "external"):
            archive = workspace / f"batch-{kind}"
            code = run(
                "ingest", archive,
                workspace / "v1.xml", workspace / "v2.xml",
                "--keys", workspace / "keys.txt", "--backend", kind,
            )
            assert code == 0
            assert "ingested 2 versions" in capsys.readouterr().out
            assert run("get", archive, "2") == 0

    def test_get_byte_identical_across_backends(self, workspace, capsys):
        texts = {}
        for kind in ("file", "chunked", "external"):
            archive = workspace / f"xid-{kind}"
            run(
                "ingest", archive,
                workspace / "v1.xml", workspace / "v2.xml",
                workspace / "v3.xml", workspace / "v4.xml",
                "--keys", workspace / "keys.txt", "--backend", kind,
            )
            capsys.readouterr()
            assert run("get", archive, "3") == 0
            texts[kind] = capsys.readouterr().out
        assert texts["file"] == texts["chunked"] == texts["external"]

    def test_compaction_rejected_on_external(self, workspace, capsys):
        code = run(
            "ingest", workspace / "weave-ext",
            workspace / "v1.xml",
            "--keys", workspace / "keys.txt",
            "--backend", "external", "--compaction",
        )
        assert code == 1
        assert "weave" in capsys.readouterr().err
        # ...and on an *existing* external archive the flag fails just
        # as loudly instead of being silently ignored.
        archive = workspace / "plain-ext"
        run(
            "ingest", archive, workspace / "v1.xml",
            "--keys", workspace / "keys.txt", "--backend", "external",
        )
        capsys.readouterr()
        code = run("ingest", archive, workspace / "v2.xml", "--compaction")
        assert code == 1
        assert "weave" in capsys.readouterr().err


class TestMine:
    def test_mine_to_stdout(self, workspace, capsys):
        code = run("mine", workspace / "v3.xml", workspace / "v4.xml")
        assert code == 0
        out = capsys.readouterr().out
        assert "(/db, (dept, {name}))" in out

    def test_mined_keys_usable_for_init(self, workspace, tmp_path):
        mined = tmp_path / "mined.txt"
        run(
            "mine", workspace / "v1.xml", workspace / "v2.xml",
            workspace / "v3.xml", workspace / "v4.xml", "-o", mined,
        )
        archive = tmp_path / "mined-archive.xml"
        assert run("init", archive, "--keys", mined) == 0
        assert run("add", archive, workspace / "v1.xml") == 0

    def test_missing_keys_message(self, workspace, tmp_path):
        orphan = tmp_path / "no-keys.xml"
        orphan.write_text('<T t=""><root/></T>', encoding="utf-8")
        with pytest.raises(SystemExit):
            run("stats", orphan)


class TestCodecs:
    """``--codec`` at init/ingest time and ``recode`` afterwards."""

    @pytest.mark.parametrize("backend", ["file", "chunked", "external"])
    def test_init_with_codec_round_trips(self, workspace, capsys, backend):
        archive = workspace / ("store.xml" if backend == "file" else "store")
        assert (
            run(
                "init", archive, "--keys", workspace / "keys.txt",
                "--backend", backend, "--codec", "gzip",
            )
            == 0
        )
        assert "codec gzip" in capsys.readouterr().out
        run("add", archive, workspace / "v1.xml", workspace / "v2.xml")
        capsys.readouterr()
        assert run("get", archive, "2") == 0
        assert "<name>finance</name>" in capsys.readouterr().out
        assert run("stats", archive) == 0
        out = capsys.readouterr().out
        assert "codec:              gzip" in out
        assert "disk bytes:" in out and "compression ratio:" in out

    def test_recode_rewrites_in_place(self, loaded, capsys):
        assert run("get", loaded, "3") == 0
        expected = capsys.readouterr().out
        assert run("recode", loaded, "--codec", "xmill") == 0
        out = capsys.readouterr().out
        assert "raw -> xmill" in out
        assert loaded.read_bytes().startswith(b"XM\x01\x00")
        assert run("get", loaded, "3") == 0
        assert capsys.readouterr().out == expected
        # ...and back again.
        assert run("recode", loaded, "--codec", "raw") == 0
        capsys.readouterr()
        assert run("get", loaded, "3") == 0
        assert capsys.readouterr().out == expected

    def test_ingest_with_codec_creates_compressed_archive(
        self, workspace, capsys
    ):
        snapshots = workspace / "snaps"
        snapshots.mkdir()
        for number in (1, 2, 3, 4):
            (workspace / f"v{number}.xml").rename(snapshots / f"v{number}.xml")
        archive = workspace / "store"
        code = run(
            "ingest", archive, snapshots,
            "--keys", workspace / "keys.txt",
            "--backend", "chunked", "--chunks", "3", "--codec", "xmill",
        )
        assert code == 0
        capsys.readouterr()
        assert run("stats", archive) == 0
        assert "codec:              xmill" in capsys.readouterr().out

    def test_ingest_refuses_codec_change_on_existing_archive(
        self, loaded, workspace, capsys
    ):
        """Asking for a different at-rest codec on an existing archive
        must refuse (pointing at recode), not silently ignore the flag."""
        with pytest.raises(SystemExit) as excinfo:
            run("ingest", loaded, workspace / "v1.xml", "--codec", "xmill")
        assert "recode" in str(excinfo.value)
        # The archive's codec did not change.
        capsys.readouterr()
        assert run("stats", loaded) == 0
        assert "codec:              raw" in capsys.readouterr().out
        # Matching codec (or no flag) keeps working.
        assert run("ingest", loaded, workspace / "v1.xml", "--codec", "raw") == 0
        assert run("ingest", loaded, workspace / "v2.xml") == 0
