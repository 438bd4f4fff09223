"""Unit tests for signatures: construction, application, polymorphism."""

import pytest

from repro.rlang import Regex
from repro.rtypes import (
    Signature,
    StreamType,
    TypeError_,
    TypeVarT,
    apply_signature,
    filter_sig,
    identity,
    prefix_sig,
    producer,
    signature_for,
    simple,
    suffix_sig,
)


class TestSimpleSignatures:
    def test_simple_application(self):
        sig = simple(".*", "desc.*", label="grep '^desc'")
        out = apply_signature(sig, StreamType.any())
        assert out.admits("description")
        assert not out.admits("other")

    def test_domain_violation(self):
        sig = simple("[0-9]+", "[0-9]+")
        with pytest.raises(TypeError_):
            apply_signature(sig, StreamType.of("[a-z]+"))

    def test_error_includes_witness(self):
        sig = simple("[0-9]+", "[0-9]+", label="numeric")
        try:
            apply_signature(sig, StreamType.of("[0-9a-z]+"))
        except TypeError_ as exc:
            assert "e.g." in str(exc)
        else:
            raise AssertionError("expected TypeError_")

    def test_producer_ignores_input(self):
        sig = producer("[0-9]+", label="wc")
        out = apply_signature(sig, StreamType.of("anything.*"))
        assert out.admits("42")


class TestPolymorphism:
    def test_identity_passes_through(self):
        sig = identity("sort")
        out = apply_signature(sig, StreamType.of("[a-z]+"))
        assert out == StreamType.of("[a-z]+")

    def test_prefix_sig(self):
        # sed 's/^/0x/' :: ∀α. α -> 0xα  (§4)
        sig = prefix_sig("0x", label="sed")
        out = apply_signature(sig, StreamType.of("[0-9a-f]+"))
        assert out.admits("0xdeadbeef")
        assert not out.admits("deadbeef")
        assert not out.admits("0xZZ")  # the part after 0x stays hex!

    def test_suffix_sig(self):
        sig = suffix_sig(";", label="sed")
        out = apply_signature(sig, StreamType.of("[a-z]+"))
        assert out.admits("abc;")
        assert not out.admits("abc")

    def test_filter_sig_intersects(self):
        sig = filter_sig("desc.*", label="grep")
        out = apply_signature(sig, StreamType.of("(Desc|Release):.*"))
        assert out.is_dead()

    def test_filter_keeps_matching_subset(self):
        sig = filter_sig(".*x.*", label="grep x")
        out = apply_signature(sig, StreamType.of("[a-z]{3}"))
        assert out.admits("axb")
        assert not out.admits("abc")
        assert not out.admits("xxxx")  # still bounded by input's 3 chars

    def test_bounded_quantification_ok(self):
        # sort -g :: ∀α ⊆ BOUND. α -> α
        sig = identity("sort -g", bound=Regex.compile("0x[0-9a-f]+.*"))
        out = apply_signature(sig, StreamType.of("0x[0-9a-f]+"))
        assert out.admits("0xff")

    def test_bounded_quantification_violation(self):
        sig = identity("sort -g", bound=Regex.compile("0x[0-9a-f]+.*"))
        with pytest.raises(TypeError_) as exc_info:
            apply_signature(sig, StreamType.of("0x.*"))
        assert "bound" in str(exc_info.value)

    def test_paper_hex_pipeline_chain(self):
        """The full §4 derivation: instantiate sed's α with grep's output."""
        grep_out = StreamType.of("[0-9a-f]+")
        sed_out = apply_signature(prefix_sig("0x", "sed"), grep_out)
        sort_sig = identity("sort -g", bound=Regex.compile("0x[0-9a-f]+.*"))
        sort_out = apply_signature(sort_sig, sed_out)
        assert sort_out == sed_out

    def test_str_rendering(self):
        sig = identity("sort -g", bound=Regex.compile("0x[0-9a-f]+.*"))
        text = str(sig)
        assert "∀" in text and "->" in text


class TestSignatureLookup:
    def test_grep(self):
        sig = signature_for(["grep", "^desc"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("desc rest")
        assert not out.admits("no match")

    def test_grep_v(self):
        sig = signature_for(["grep", "-v", "^#"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("code")
        assert not out.admits("# comment")

    def test_grep_o(self):
        sig = signature_for(["grep", "-oE", "[0-9a-f]+"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("deadbeef")
        assert not out.admits("xyz")

    def test_grep_c(self):
        sig = signature_for(["grep", "-c", "x"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("17")

    def test_sed_prefix(self):
        sig = signature_for(["sed", "s/^/0x/"])
        out = apply_signature(sig, StreamType.of("[0-9]+"))
        assert out.admits("0x42")

    def test_sed_suffix(self):
        sig = signature_for(["sed", "s/$/!/"])
        out = apply_signature(sig, StreamType.of("hi"))
        assert out.admits("hi!")

    def test_sed_general_untyped(self):
        assert signature_for(["sed", "s/a/b/"]) is None

    def test_sort_plain_identity(self):
        sig = signature_for(["sort"])
        out = apply_signature(sig, StreamType.of("[a-z]+"))
        assert out == StreamType.of("[a-z]+")

    def test_sort_g_bound(self):
        sig = signature_for(["sort", "-g"])
        apply_signature(sig, StreamType.of("0x[0-9a-f]+"))  # fine
        with pytest.raises(TypeError_):
            apply_signature(sig, StreamType.of("0x.*"))

    def test_cut(self):
        sig = signature_for(["cut", "-f", "2"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("field")
        assert not out.admits("a\tb")

    def test_cut_custom_delim(self):
        sig = signature_for(["cut", "-d:", "-f", "1"])
        out = apply_signature(sig, StreamType.any())
        assert not out.admits("a:b")

    def test_wc_produces_numbers(self):
        sig = signature_for(["wc", "-l"])
        out = apply_signature(sig, StreamType.dead())
        assert out.admits("0")

    def test_uniq_c(self):
        sig = signature_for(["uniq", "-c"])
        out = apply_signature(sig, StreamType.of("[a-z]+"))
        assert out.admits("   3 abc")

    def test_tr_d(self):
        sig = signature_for(["tr", "-d", "0-9"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("abc")
        assert not out.admits("a1c")

    def test_ls_l(self):
        sig = signature_for(["ls", "-l"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("-rw-r--r-- 1 u g 10 Jan 1 f")

    def test_unknown_command_is_untyped(self):
        assert signature_for(["frobnicate", "-x"]) is None

    def test_lsb_release(self):
        sig = signature_for(["lsb_release", "-a"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("Release:\t12")
        assert not out.admits("desc:\t12")


class TestDelegatingSignatures:
    def test_xargs_delegates_to_inner(self):
        sig = signature_for(["xargs", "grep", "-oE", "[0-9]+"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("123")
        assert not out.admits("abc")

    def test_xargs_skips_own_flags(self):
        sig = signature_for(["xargs", "-n", "1", "grep", "-oE", "[a-z]+"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("abc")

    def test_xargs_unknown_inner_untyped(self):
        assert signature_for(["xargs", "frobnicate"]) is None

    def test_awk_field_print(self):
        sig = signature_for(["awk", "{print $2}"])
        out = apply_signature(sig, StreamType.any())
        assert out.admits("field")
        assert not out.admits("two words")

    def test_awk_general_untyped(self):
        assert signature_for(["awk", "{sum+=$1} END {print sum}"]) is None
