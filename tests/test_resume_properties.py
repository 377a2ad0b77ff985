"""Generated checks for what a resumed campaign reads: the one-pass JSONL
parse behind every verified store hit, a mod-a mapping's ROM table and
the key description of a checked decoder."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import (
    AddressMapping,
    IdentityMapping,
    ModAMapping,
    ParityMapping,
    TruncatedBergerMapping,
)
from repro.decoder.flat import FlatDecoder
from repro.results import (
    Provenance,
    ResultRecord,
    ResultSet,
    canonical_json,
    content_digest,
    describe_target,
)
from repro.rom.nor_matrix import CheckedDecoder

GENERATED = settings(max_examples=60, derandomize=True, deadline=None)

cycles = st.one_of(st.none(), st.integers(0, 1 << 40))

provenances = st.builds(
    Provenance,
    campaign=st.sampled_from(["decoder", "scheme", "transient", "march"]),
    engine=st.sampled_from([None, "vector", "serial"]),
    workload=st.one_of(st.none(), st.text(min_size=1, max_size=12)),
    scenario_count=st.one_of(st.none(), st.integers(0, 5000)),
    repro_version=st.sampled_from(["", "2.5.0", "2.6.0"]),
    key=st.one_of(st.none(), st.text("0123456789abcdef", min_size=64,
                                     max_size=64)),
)


@st.composite
def result_sets(draw):
    provs = draw(st.lists(provenances, max_size=3))
    records = draw(
        st.lists(
            st.builds(
                ResultRecord,
                fault=st.text(max_size=24),
                kind=st.sampled_from(
                    ["sa0", "sa1", "rom", "address", "memory", "transient"]
                ),
                first_detection=cycles,
                first_error=cycles,
                analytic_escape=st.one_of(
                    st.none(), st.floats(allow_nan=False)
                ),
                provenance_index=st.integers(0, max(len(provs) - 1, 0)),
            ),
            max_size=30,
        )
    )
    return ResultSet(
        records=records,
        provenances=tuple(provs),
        cycles_simulated=draw(st.integers(0, 1 << 32)),
    )


def lines_of(result_set):
    return result_set.to_jsonl().splitlines()


class TestJsonlRoundTrip:
    @GENERATED
    @given(result_set=result_sets())
    def test_every_reader_returns_the_set(self, tmp_path_factory, result_set):
        text = result_set.to_jsonl()
        assert ResultSet.from_jsonl(text) == result_set
        assert ResultSet.from_jsonl(text.encode("utf-8")) == result_set
        path = tmp_path_factory.mktemp("jsonl") / "set.jsonl"
        result_set.write_jsonl(str(path))
        assert ResultSet.read_jsonl(str(path)) == result_set

    @GENERATED
    @given(result_sets(), st.data())
    def test_blank_lines_and_padding_are_skipped(self, result_set, data):
        padded = []
        for line in lines_of(result_set):
            padded += [""] * data.draw(st.integers(0, 2))
            padded.append(data.draw(st.sampled_from(["", " ", "\t"]))
                          + line + data.draw(st.sampled_from(["", " "])))
        assert ResultSet.from_lines(padded) == result_set


class TestMalformedStreams:
    """Every malformed stream fails with ``ValueError``."""

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n\t\n"])
    def test_empty_or_blank_stream(self, text):
        with pytest.raises(ValueError, match="empty result stream"):
            ResultSet.from_jsonl(text)

    @GENERATED
    @given(
        result_sets(),
        st.one_of(
            st.dictionaries(st.sampled_from(["format", "version", "x"]),
                            st.integers(0, 3) | st.text(max_size=6)),
            st.lists(st.integers(), max_size=2),
            st.integers(),
        ),
    )
    def test_bad_header(self, result_set, header):
        lines = lines_of(result_set)
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError):
            ResultSet.from_lines(lines)

    @GENERATED
    @given(result_sets(), st.data())
    def test_two_objects_on_one_line(self, result_set, data):
        lines = lines_of(result_set)
        if len(lines) < 3:
            lines += [json.dumps({"f": "x", "k": "sa0"})] * 2
        at = data.draw(st.integers(1, len(lines) - 2))
        glue = data.draw(st.sampled_from(["", ",", " ", ", "]))
        lines[at : at + 2] = [lines[at] + glue + lines[at + 1]]
        with pytest.raises(ValueError):
            ResultSet.from_lines(lines)

    @GENERATED
    @given(
        result_sets(),
        st.data(),
        st.one_of(
            st.integers(), st.text(max_size=5), st.none(), st.booleans(),
            st.lists(st.integers(), max_size=3),
        ),
    )
    def test_non_object_line(self, result_set, data, value):
        lines = lines_of(result_set)
        at = data.draw(st.integers(1, len(lines)))
        lines.insert(at, json.dumps(value))
        with pytest.raises(ValueError):
            ResultSet.from_lines(lines)

    @GENERATED
    @given(result_sets(), st.data())
    def test_truncated_last_line(self, result_set, data):
        lines = lines_of(result_set)
        cut = data.draw(st.integers(1, len(lines[-1]) - 1))
        lines[-1] = lines[-1][:cut]
        with pytest.raises(ValueError):
            ResultSet.from_lines(lines)


@st.composite
def mod_a_mappings(draw):
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, n - 1))
    code = MOutOfNCode(m, n)
    a = draw(st.integers(1, code.cardinality()))
    return ModAMapping(
        code,
        draw(st.integers(1, 9)),
        a=a,
        complete=draw(st.booleans()),
        allow_even_a=True,
    )


@GENERATED
@given(mod_a_mappings())
def test_mod_a_table_is_the_codeword_of_every_address(mapping):
    assert mapping.table() == [
        mapping.codeword(address) for address in range(1 << mapping.n_bits)
    ]
    assert mapping.table() == AddressMapping.table(mapping)


@st.composite
def checked_decoders(draw):
    n_bits = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["mod", "parity", "identity", "berger"]))
    if kind == "mod":
        mapping = draw(mod_a_mappings())
        mapping = ModAMapping(
            mapping.code, n_bits, a=mapping.a, complete=mapping.complete,
            allow_even_a=True,
        )
    elif kind == "parity":
        mapping = ParityMapping(n_bits)
    elif kind == "identity":
        width = draw(st.integers(n_bits + 2, n_bits + 3))
        mapping = IdentityMapping(MOutOfNCode(width // 2, width), n_bits)
    else:
        if n_bits < 2:
            mapping = ParityMapping(n_bits)
        else:
            mapping = TruncatedBergerMapping(
                n_bits, draw(st.integers(1, n_bits - 1))
            )
    decoder = FlatDecoder(n_bits) if draw(st.booleans()) else None
    return CheckedDecoder(mapping, decoder=decoder)


def described_by_formula(target):
    """The checked-decoder description as 2.5 computed it: a
    ``mapping.codeword`` call per address."""
    mapping = target.mapping
    return {
        "type": type(target).__name__,
        "n_bits": mapping.n_bits,
        "rom": [
            list(mapping.codeword(a)) for a in range(1 << mapping.n_bits)
        ],
        "circuit": content_digest(
            canonical_json(
                [
                    (gate.gate_type.value, tuple(gate.inputs), gate.output)
                    for gate in target.tree.circuit.gates
                ]
            )
        ),
    }


class Unprogrammed:
    """A target with a tree and a mapping but no NOR matrix."""

    def __init__(self, checked):
        self.tree = checked.tree
        self.mapping = checked.mapping


@GENERATED
@given(checked_decoders())
def test_describe_target_keeps_the_formula_byte_for_byte(checked):
    assert canonical_json(describe_target(checked)) == canonical_json(
        described_by_formula(checked)
    )
    bare = Unprogrammed(checked)
    assert canonical_json(describe_target(bare)) == canonical_json(
        described_by_formula(bare)
    )
