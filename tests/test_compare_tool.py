"""The helpers of ``tools/compare.py``, the parent/change comparison, and
this checkout's outputs against the digests it pins.

The script itself needs git and a second tree, so only the parts that
choose the invocations and measure a difference are tested here, with the
one tree the digests need.
"""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_tool", Path(__file__).resolve().parent.parent / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_largest_relative_difference_pairs_numbers_in_order():
    assert compare.largest_relative_difference("r_max = 60.0", "r_max = 60 Bohr radii") == 0.0
    assert compare.largest_relative_difference("k0 4.0,-2", "k0 5.0,-2") == 0.2
    # an overflow on one side only counts as a difference of 1
    assert compare.largest_relative_difference("E = 1e999", "E = 3") == 1.0
    assert compare.largest_relative_difference("1,2", "1") is None


def test_readme_invocations_write_to_stdout_in_both_formats():
    invocations = compare.readme_invocations()
    assert len(invocations) == 20
    assert [argv[-2:] for argv in invocations] == [["--format", "json"]] * 10 + [
        ["--format", "csv"]] * 10
    assert not any(token.startswith("--out") for argv in invocations for token in argv)
    assert ["zitter", "--format", "csv", "--format", "json"] in invocations


def test_argv_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cases.txt"
    path.write_text("# a comment\n\nlandau --pz -1e-3  # trailing\nlorentz --v='-0.6,0,0'\n")
    assert compare.file_invocations(str(path)) == [["landau", "--pz", "-1e-3"],
                                                   ["lorentz", "--v=-0.6,0,0"]]


def test_outputs_match_the_pinned_digests(tmp_path):
    # every invocation of the comparison list prints the bytes pinned in
    # tests/output_digests.json; a change that alters output on purpose
    # re-pins it with tools/pin_digests.py
    pinned = json.loads(compare.DIGESTS.read_text(encoding="utf-8"))
    here = compare.versions()
    assert here == pinned["versions"], (
        f"digests pinned under {pinned['versions']}, but this interpreter has {here}")
    digests = compare.output_digests(compare.ROOT, tmp_path / "cwd")
    changed = [argv for argv in pinned["digests"].keys() | digests.keys()
               if pinned["digests"].get(argv) != digests.get(argv)]
    assert not changed, f"{len(changed)} invocations differ from their pinned digests: {sorted(changed)}"
