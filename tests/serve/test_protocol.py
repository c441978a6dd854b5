"""Protocol-layer unit tests: request validation, the alpha-invariant
dedup key, counterexample name translation, and the verdict mappings."""

import pytest

from repro.kernels import KERNELS
from repro.serve.protocol import (
    ProtocolError, canonical_request_key, parse_request,
    translate_counterexample, verdict_exit_code, verdict_http_status,
)

SRC = KERNELS["optimizedTranspose"].source


def _races(source=SRC, **over):
    payload = {"command": "races", "source": source}
    payload.update(over)
    return payload


class TestParseRequest:
    def test_minimal_races(self):
        req = parse_request(_races())
        assert req.command == "races"
        assert req.width == 8 and req.timeout == 60.0

    def test_dims_accept_lists_and_strings(self):
        req = parse_request(_races(cbdim=[2, 2], cgdim="2,2"))
        assert req.cbdim == (2, 2, 1)   # padded to 3
        assert req.cgdim == (2, 2)

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ({}, "command"),
        ({"command": "run", "source": "x"}, "command"),
        (_races(source=""), "source"),
        (_races(target="x"), "target"),
        ({"command": "equiv", "source": "a"}, "target"),
        (_races(width=0), "width"),
        (_races(width="8"), "width"),
        (_races(timeout=-1), "timeout"),
        (_races(timeout=True), "timeout"),
        (_races(scalars={"n": "4"}), "integer"),
        (_races(scalars=[1]), "scalars"),
        (_races(method="magic"), "method"),
        (_races(method="nonparam"), "races"),
        (_races(bughunt=True), "bughunt"),
        (_races(certify="yes"), "certify"),
        (_races(certify=1), "certify"),
        (_races(tenant="default"), "tenant"),
        (_races(cbdim=[0, 1]), "cbdim"),
        (_races(cbdim=[1, 1, 1, 1]), "cbdim"),
        (_races(frobnicate=1), "unknown fields"),
        ({"command": "func", "source": "x", "method": "nonparam"}, "bdim"),
    ])
    def test_rejections_name_the_field(self, payload, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(payload)

    @pytest.mark.parametrize("value", [True, False])
    def test_validate_is_an_unknown_field(self, value):
        """Replay confirmation has no opt-out: ``validate`` is answered
        like any unknown field."""
        with pytest.raises(ProtocolError, match="unknown fields: validate"):
            parse_request(_races(**{"validate": value}))


class TestCanonicalKey:
    def test_alpha_equivalent_kernels_share_a_key(self):
        renamed = SRC.replace("odata", "zz_out").replace("idata", "zz_in")
        assert renamed != SRC
        k1, _ = canonical_request_key(parse_request(_races()))
        k2, _ = canonical_request_key(parse_request(_races(renamed)))
        assert k1 == k2

    def test_structural_change_splits_the_key(self):
        changed = SRC.replace("i < width", "i <= width", 1)
        assert changed != SRC
        k1, _ = canonical_request_key(parse_request(_races()))
        k2, _ = canonical_request_key(parse_request(_races(changed)))
        assert k1 != k2

    def test_knobs_split_the_key(self):
        base = parse_request(_races())
        assert canonical_request_key(base)[0] != \
            canonical_request_key(parse_request(_races(width=16)))[0]
        assert canonical_request_key(base)[0] != \
            canonical_request_key(parse_request(_races(timeout=30)))[0]

    def test_certify_splits_the_key(self):
        # A certified answer carries a proof-checked guarantee an
        # uncertified one does not; they must never share a response.
        k1, _ = canonical_request_key(parse_request(_races()))
        k2, _ = canonical_request_key(
            parse_request(_races(certify=True)))
        assert k1 != k2

    def test_pinned_scalar_names_stay_reserved(self):
        # Renaming the pinned scalar must NOT collapse onto the original:
        # the request pins "width" by name, so its spelling is semantic.
        renamed = SRC.replace("width", "breite")
        k1, _ = canonical_request_key(
            parse_request(_races(scalars={"width": 4})))
        k2, _ = canonical_request_key(
            parse_request(_races(renamed, scalars={"width": 4})))
        assert k1 != k2

    def test_pair_degrades_to_textual_identity(self):
        renamed = SRC.replace("odata", "zz_out")
        k1, _ = canonical_request_key(
            parse_request(_races(pair="Transpose")))
        k2, _ = canonical_request_key(
            parse_request(_races(renamed, pair="Transpose")))
        assert k1 != k2  # conservative: never false-shares

    def test_names_follow_first_encounter_order(self):
        _, names = canonical_request_key(parse_request(_races()))
        (kernel_names,) = names
        assert kernel_names  # the kernel's identifiers, in order
        assert len(kernel_names) == len(set(kernel_names))
        assert "tid" not in kernel_names  # reserved builtins excluded


class TestReservedShadowing:
    """Alpha-equivalence around kernels that shadow reserved/builtin
    spellings (``tid``/``bid``/``bdim``/``gdim``, the dim selectors):
    reserved spellings never alpha-rename, so a kernel that reuses one as
    its own identifier conservatively splits the key instead of
    false-sharing a verdict."""

    def test_renaming_onto_a_builtin_spelling_splits_the_key(self):
        # odata -> gdim: in the mutated kernel the spelling 'gdim' is
        # reserved, so it keeps its name while the original's 'odata'
        # gets an ordinal.  The streams differ; solved separately.
        shadowing = SRC.replace("odata", "gdim")
        assert shadowing != SRC
        k1, _ = canonical_request_key(parse_request(_races()))
        k2, _ = canonical_request_key(parse_request(_races(shadowing)))
        assert k1 != k2

    def test_builtin_spellings_never_enter_the_name_lists(self):
        shadowing = SRC.replace("odata", "tid").replace("idata", "x")
        _, names = canonical_request_key(
            parse_request(_races(shadowing)))
        (kernel_names,) = names
        assert "tid" not in kernel_names
        assert "x" not in kernel_names
        assert "odata" not in kernel_names  # it was renamed away

    def test_two_shadowing_kernels_still_share_when_identical_elsewhere(
            self):
        # Both spell the output 'tid'; the remaining identifiers differ
        # only in spelling, so the two requests are alpha-equivalent.
        a = SRC.replace("odata", "tid")
        b = SRC.replace("odata", "tid").replace("idata", "zz_in")
        k1, names_a = canonical_request_key(parse_request(_races(a)))
        k2, names_b = canonical_request_key(parse_request(_races(b)))
        assert k1 == k2
        # The shadowed spelling is absent from both translation tables,
        # so a counterexample touching 'tid' passes through verbatim.
        cex = {"arrays": {"tid": {"0": 3}}, "scalars": {"width": 4}}
        got = translate_counterexample(cex, names_a, names_b)
        assert got["arrays"] == {"tid": {"0": 3}}

    def test_pinned_scalar_shadowing_is_conservative(self):
        # Pinning a scalar reserves its spelling per-request: a kernel
        # whose own array happens to be spelled like the pinned scalar
        # cannot alpha-share with one that names it differently.
        base = SRC
        shadowing = SRC.replace("odata", "n")
        k1, _ = canonical_request_key(
            parse_request(_races(base, scalars={"n": 2})))
        k2, _ = canonical_request_key(
            parse_request(_races(shadowing, scalars={"n": 2})))
        assert k1 != k2

    def test_translation_never_renames_reserved_spellings(self):
        # Reserved names are absent from both lists by construction, so
        # translation leaves them alone even when ordinals collide.
        leader = [["out", "inp"]]
        follower = [["result", "source"]]
        cex = {"scalars": {"tid": 1, "bdim": 2, "out": 3},
               "arrays": {"x": {}, "inp": {"0": 9}}}
        got = translate_counterexample(cex, leader, follower)
        assert got["scalars"] == {"tid": 1, "bdim": 2, "result": 3}
        assert got["arrays"] == {"x": {}, "source": {"0": 9}}

    def test_simultaneous_swap_does_not_cascade(self):
        # leader (a, b) maps onto follower (b, a): the rename must apply
        # in one simultaneous pass, not chain a->b->a.
        got = translate_counterexample(
            {"scalars": {"a": 1, "b": 2}}, [["a", "b"]], [["b", "a"]])
        assert got["scalars"] == {"b": 1, "a": 2}


class TestTranslation:
    def test_counterexample_names_rebind(self):
        leader = [["out", "inp", "n"]]
        follower = [["result", "source", "count"]]
        cex = {"scalars": {"n": 4, "width": 8},
               "arrays": {"out": {"0": 1}, "other": {}},
               "detail": "write out[0]"}
        got = translate_counterexample(cex, leader, follower)
        assert got["scalars"] == {"count": 4, "width": 8}
        assert got["arrays"] == {"result": {"0": 1}, "other": {}}
        assert got["detail"] == "write out[0]"  # detail text untouched

    def test_none_and_empty_passthrough(self):
        assert translate_counterexample(None, [["a"]], [["b"]]) is None
        cex = {"scalars": {"x": 1}}
        assert translate_counterexample(cex, [[]], [[]]) is cex


class TestVerdictMappings:
    @pytest.mark.parametrize("verdict,status,code", [
        ("verified", 200, 0),
        ("bug", 200, 1),
        ("timeout", 408, 3),
        ("unknown", 503, 3),
        ("unsupported", 503, 3),
    ])
    def test_contract(self, verdict, status, code):
        assert verdict_http_status(verdict) == status
        assert verdict_exit_code(verdict) == code
