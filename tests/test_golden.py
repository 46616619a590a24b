"""Every command line of the golden corpus (golden.json) prints what it pins,
within golden.TIME_LIMIT_S."""

import re

import golden


def test_golden_corpus():
    assert golden.differences(golden.load()) == []


def test_a_replay_over_the_time_limit_is_a_difference(monkeypatch):
    # the bound is checked on every replay, and no time is pinned in the corpus
    entry = golden.load()[0]
    assert golden.differences([entry]) == []
    monkeypatch.setattr(golden, "TIME_LIMIT_S", 0.0)
    (line,) = golden.differences([entry])
    assert re.fullmatch(rf"{re.escape(' '.join(entry['argv']))}: took \d+\.\d s, over 0 s", line)
    pinned = {"argv", "exit", "stdout_sha256", "stderr_last"}
    assert all(other.keys() == pinned for other in golden.load())


def test_update_names_each_changed_entry_before_it_rewrites(tmp_path, monkeypatch, capsys):
    pinned = golden.load()[:2]
    stale = dict(pinned[1], exit=7)
    corpus = tmp_path / "golden.json"
    corpus.write_text(golden.dump([pinned[0], stale]), encoding="utf-8")
    monkeypatch.setattr(golden, "CORPUS", corpus)

    assert golden.main(["--update"]) == 0
    argv = " ".join(stale["argv"])
    assert capsys.readouterr().out == (
        f"{argv}: exit 7 -> {pinned[1]['exit']!r}\nrewrote 2 entries of golden.json\n"
    )
    assert golden.load() == pinned

    assert golden.main(["--update"]) == 0
    assert capsys.readouterr().out == "no entry changed\nrewrote 2 entries of golden.json\n"
