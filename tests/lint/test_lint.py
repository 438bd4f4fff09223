"""Unit tests for the syntactic baseline linter."""

import pytest

from repro.lint import lint, lint_codes

FIG1 = 'STEAMROOT="$(cd "${0%/*}" && echo $PWD)"\nrm -fr "$STEAMROOT"/*\n'

FIG2 = """STEAMROOT="$(cd "${0%/*}" && echo $PWD)"
if [ "$(realpath "$STEAMROOT/")" != "/" ]; then
  rm -fr "$STEAMROOT"/*
else
  echo "Bad script path: $0"; exit 1
fi
"""

FIG3 = FIG2.replace('!= "/"', '= "/"')

FIG5 = """STEAMROOT="$(cd "${0%/*}" && echo $PWD)"/
case $(lsb_release -a | grep '^desc' | cut -f 2) in
  Debian) SUFFIX=".config/steam" ;;
  *Linux) SUFFIX=".steam" ;;
esac
rm -fr $STEAMROOT$SUFFIX
"""


class TestRules:
    def test_sc2086_unquoted_var(self):
        assert "SC2086" in lint_codes("rm $FILE")

    def test_sc2086_quoted_ok(self):
        assert "SC2086" not in lint_codes('rm "$FILE"')

    def test_sc2115_rm_var_slash(self):
        assert "SC2115" in lint_codes('rm -rf "$DIR"/*')

    def test_sc2115_not_on_other_commands(self):
        assert "SC2115" not in lint_codes('ls "$DIR"/*')

    def test_sc2164_unguarded_cd(self):
        assert "SC2164" in lint_codes("cd /tmp\nrm x")

    def test_sc2164_guarded_cd_ok(self):
        assert "SC2164" not in lint_codes("cd /tmp || exit 1")

    def test_sc2164_cd_in_if_ok(self):
        assert "SC2164" not in lint_codes("if cd /tmp; then rm x; fi")

    def test_sc2006_backticks(self):
        assert "SC2006" in lint_codes("echo `date`")

    def test_sc2016_dollar_in_single_quotes(self):
        assert "SC2016" in lint_codes("echo '$HOME is home'")

    def test_sc2154_unassigned(self):
        assert "SC2154" in lint_codes('echo "$never_assigned"')

    def test_sc2154_assigned_ok(self):
        assert "SC2154" not in lint_codes('x=1\necho "$x"')

    def test_sc2154_shell_set_vars_ok(self):
        for name in ("PPID", "UID", "OPTERR"):
            assert "SC2154" not in lint_codes(f'echo "${name}"'), name

    def test_sc2034_unused(self):
        assert "SC2034" in lint_codes("UNUSED=1\necho hi")

    def test_sc2034_used_ok(self):
        assert "SC2034" not in lint_codes('X=1\necho "$X"')

    def test_sc2162_read_without_r(self):
        assert "SC2162" in lint_codes("read line")

    def test_sc2162_read_with_r_ok(self):
        assert "SC2162" not in lint_codes("read -r line")

    def test_sc2046_unquoted_cmdsub(self):
        assert "SC2046" in lint_codes("rm $(find . -name x)")

    def test_sc2015_and_or_chain(self):
        assert "SC2015" in lint_codes("test -f x && echo yes || echo no")

    def test_diagnostics_tagged_as_lint(self):
        for diagnostic in lint("rm $FILE"):
            assert diagnostic.source == "lint"

    def test_a_finding_in_a_substitution_cites_its_script_position(self):
        """Fig. 1's ``$PWD`` sits on line 2, column 35, inside ``$(...)``."""
        [sc2086] = [d for d in lint("# c\n" + FIG1) if d.code == "SC2086"]
        assert (sc2086.pos.line, sc2086.pos.col) == (2, 35)


class TestPaperBaselineBehaviour:
    """§2's characterisation of syntactic linting, reproduced exactly."""

    def test_warns_on_fig1(self):
        assert "SC2115" in lint_codes(FIG1)

    def test_false_positive_on_safe_fig2(self):
        """The safe fix still gets the same warning."""
        assert "SC2115" in lint_codes(FIG2)

    def test_cannot_distinguish_fig2_from_fig3(self):
        """The unsafe fix receives *identical* diagnostics: the linter
        fails to identify its unambiguous incorrectness."""
        assert lint_codes(FIG2) == lint_codes(FIG3)

    def test_silent_on_fig5_grep_bug(self):
        """No syntactic rule sees the dead '^desc' filter."""
        codes = lint_codes(FIG5)
        assert "SC2115" not in codes
        assert all(code in ("SC2086",) for code in codes)


class TestAdditionalRules:
    def test_sc2068_unquoted_at(self):
        assert "SC2068" in lint_codes("rm $@")

    def test_sc2068_quoted_ok(self):
        assert "SC2068" not in lint_codes('rm "$@"')

    def test_sc2166_test_connectives(self):
        assert "SC2166" in lint_codes('[ -n "$x" -a -f y ]')
        assert "SC2166" in lint_codes("test 1 -lt 2 -o 3 -lt 4")

    def test_sc2166_plain_test_ok(self):
        assert "SC2166" not in lint_codes('[ -n "$x" ]')

    def test_sc2126_grep_wc(self):
        assert "SC2126" in lint_codes("grep foo log | wc -l")

    def test_sc2126_wc_words_ok(self):
        assert "SC2126" not in lint_codes("grep foo log | wc -w")

    def test_sc2002_useless_cat(self):
        assert "SC2002" in lint_codes("cat file.txt | grep x")

    def test_sc2002_multi_file_ok(self):
        assert "SC2002" not in lint_codes("cat a b | grep x")

    def test_sc2035_leading_glob(self):
        assert "SC2035" in lint_codes("rm *.bak")

    def test_sc2035_anchored_ok(self):
        assert "SC2035" not in lint_codes("rm ./*.bak")
