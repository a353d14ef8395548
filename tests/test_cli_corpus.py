"""The CLI output corpus: every run of `cli_corpus.py` gives the committed
exit code and the committed stdout and stderr bytes."""

from cli_corpus import committed_lines, corpus_lines, differences


def test_outputs_match_committed_corpus():
    diff = differences(corpus_lines(), committed_lines())
    assert not diff, "\n".join(diff[:10])
