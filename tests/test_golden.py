"""The golden corpus: regenerated records equal the committed file."""

import golden


def test_golden_corpus_matches_the_committed_file():
    want = golden.GOLDEN_PATH.read_text().splitlines()
    got = list(golden.lines())
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, f"line {first + 1} differs:\n got {got[first]}\nwant {want[first]}"
    assert len(got) == len(want)
