"""The record types: immutable values with field-wise equality and validation,
and the typed errors of library calls."""

import inspect
import tracemalloc
from math import factorial

import pytest

from ncflab import (
    AnfPolynomial,
    BooleanFunction,
    GuardExceededError,
    InvalidInputError,
    LayerDecomposition,
    NcflabError,
    NcfClassification,
    NotNcfReason,
    block_sensitivity,
    cert_profile,
    certificate_at,
    compose,
    count_by_layers,
    count_s_symmetric,
    count_strongly_asym_max_layers,
    count_table,
    count_total,
    cycle_notation,
    enumerate_ncfs,
    equivalent,
    index_of,
    is_strongly_asymmetric,
    layer_structures,
    ncf_cert_formula,
    parse_decomposition,
    pell_like,
    s_symmetric_triple_sum,
    sensitivity_at,
    strongly_asymmetric_structure_sum,
    symmetry_report,
    verify,
    word_at,
    words,
)
from ncflab.anf import check_anf, evaluate_anf
from ncflab.cli import main
from ncflab.complexity import CertificateWitness, ComplexityProfile
from ncflab.core import permutation_cycles
from ncflab.enumeration import CheckResult, CountTable, VerificationReport, _result
from ncflab.symmetry import NcfSymmetryChecks, SymmetryPartition, SymmetryReport, partition

#: x1*x2*x3 + x2*x3 + x3, a three-variable function for the library calls below.
CASCADE = BooleanFunction.from_hex("3:B0")

#: One value of each record type, and its fields in order.
RECORDS = [
    (BooleanFunction(2, 8), "arity bits"),
    (AnfPolynomial(2, frozenset({frozenset({1, 2})})), "arity monomials"),
    (CertificateWitness((0, 1), 1, (1,)), "word size certificate"),
    (
        ComplexityProfile(1, 2, 2, 2),
        "c0 c1 c sensitivity block_sensitivity witnesses degenerate",
    ),
    (LayerDecomposition(2, (((1, 0), (2, 1)),), 1), "arity layers b"),
    (NcfClassification(False, reason=NotNcfReason.CONSTANT), "is_ncf decomposition reason"),
    (SymmetryPartition(3, ((1, 3), (2,))), "arity classes"),
    (
        SymmetryReport(2, 1, True, True, False, (2, 1)),
        "arity s partially_symmetric totally_symmetric strongly_asymmetric"
        " nontrivial_automorphism",
    ),
    (
        NcfSymmetryChecks(2, 1, 1, 1, 0, True, True, True, True, True),
        "arity s r r1 r2 classes_within_layers classes_per_layer class_count_rule"
        " layer_count_bounds symmetry_level_bounds",
    ),
    (
        CountTable(2, 8, {1: 8}, {1: 4, 2: 4}, 4, 4),
        "n total by_layers by_symmetry strongly_asymmetric strongly_asym_max_layers",
    ),
    (CheckResult(True, "8", "8"), "passed expected actual"),
    (VerificationReport(2, 8, {"x": CheckResult(True, "8", "8")}), "n functions_checked checks"),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_values(record, fields):
    cls = type(record)
    assert cls._fields == tuple(fields.split())
    # Each field's type is documented once: on __new__ where it validates,
    # else as a class annotation.
    documented = cls.__dict__.get("__annotations__") or [
        *inspect.signature(cls.__new__).parameters
    ][1:]
    assert tuple(documented) == cls._fields

    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1

    twin = cls(**{name: getattr(record, name) for name in cls._fields})
    assert type(twin) is cls and twin == record
    if cls in (CountTable, VerificationReport):  # dict fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_record_defaults():
    p = ComplexityProfile(c0=1, c1=1, c=1, sensitivity=1)
    assert (p.block_sensitivity, p.witnesses, p.degenerate) == (None, None, False)
    outcome = NcfClassification(True)
    assert (outcome.decomposition, outcome.reason) == (None, None)
    assert SymmetryReport(2, 2, False, False, True).nontrivial_automorphism is None


def test_record_reprs_keep_the_field_form():
    d = LayerDecomposition.from_pairs(4, [[(3, 1)], [(1, 0), (2, 1), (4, 0)]], 1)
    assert repr(d) == (
        "LayerDecomposition(arity=4, layers=(((3, 1),), ((1, 0), (2, 1), (4, 0))), b=1)"
    )
    assert repr(cert_profile(compose(d))) == (
        "ComplexityProfile(c0=2, c1=3, c=3, sensitivity=3, block_sensitivity=None,"
        " witnesses=None, degenerate=False)"
    )
    assert repr(cert_profile(BooleanFunction.from_hex("2:8"), with_witnesses=True)) == (
        "ComplexityProfile(c0=1, c1=2, c=2, sensitivity=2, block_sensitivity=None,"
        " witnesses=(CertificateWitness(word=(0, 0), size=1, certificate=(1,)),"
        " CertificateWitness(word=(1, 0), size=1, certificate=(2,)),"
        " CertificateWitness(word=(0, 1), size=1, certificate=(1,)),"
        " CertificateWitness(word=(1, 1), size=2, certificate=(1, 2))), degenerate=False)"
    )
    assert repr(_result(3, 4, "x")) == "CheckResult(passed=False, expected='3', actual='4 [x]')"


def test_unchecked_records_equal_their_validated_twins():
    for d in enumerate_ncfs(4):  # built by LayerDecomposition._unchecked
        twin = LayerDecomposition(d.arity, d.layers, d.b)
        assert type(d) is LayerDecomposition and twin == d and hash(twin) == hash(d)
        f = compose(d)
        classes = partition(f)  # built by SymmetryPartition._unchecked
        twin = SymmetryPartition(classes.arity, classes.classes)
        assert type(classes) is SymmetryPartition and twin == classes
    for witness in cert_profile(f, with_witnesses=True).witnesses:
        assert type(witness) is CertificateWitness
        assert witness == certificate_at(f, witness.word)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BooleanFunction(25, 0), InvalidInputError, "arity must lie in 0..24, got 25"),
        (lambda: BooleanFunction(1, 4), InvalidInputError, "table value out of range for arity 1"),
        (
            lambda: AnfPolynomial(2, frozenset({frozenset({3})})),
            InvalidInputError,
            "variable index 3 out of range 1..2",
        ),
        (
            lambda: ComplexityProfile(1, 2, 1, 1),
            NcflabError,
            "profile invariant violated: c != max(c0, c1)",
        ),
        (
            lambda: ComplexityProfile(1, 2, 2, 2, 1),
            NcflabError,
            "profile invariant violated: s <= bs <= c",
        ),
        (
            lambda: LayerDecomposition(2, (((1, 0, 1), (2, 0)),), 0),
            InvalidInputError,
            "bad layer entry (1, 0, 1)",
        ),
        (
            lambda: LayerDecomposition(2, (((1, 0), (2, 0)),), 2),
            InvalidInputError,
            "output bit must be 0 or 1, got 2",
        ),
        (
            lambda: LayerDecomposition(2, (((1, 0),), ((2, 0),)), 0),
            InvalidInputError,
            "the last layer must contain at least two variables",
        ),
        (
            lambda: SymmetryPartition(3, ((2, 1), (3,))),
            InvalidInputError,
            "bad symmetry class (2, 1)",
        ),
        (
            lambda: SymmetryPartition(3, ((1, 2),)),
            InvalidInputError,
            "classes do not partition 1..3",
        ),
        (
            lambda: SymmetryReport(2, 1, True, True, True),
            NcflabError,
            "report invariant violated: strong asymmetry needs s = n",
        ),
    ],
)
def test_record_validation_messages(build, error, message):
    with pytest.raises(NcflabError) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: index_of((0, 2)), "word entries must be bits, got 2"),
        (lambda: BooleanFunction.constant(2, 2), "value must be 0 or 1, got 2"),
        (lambda: BooleanFunction.projection(3, 4), "variable index 4 out of range 1..3"),
        (lambda: BooleanFunction.projection(3, 1.5), "variable index 1.5 out of range 1..3"),
        (lambda: BooleanFunction.from_hex("x:1"), "bad arity field in 'x:1'"),
        (lambda: BooleanFunction.from_hex("0:F"), "table value out of range in '0:F'"),
        (lambda: BooleanFunction(3, 0).bit(-1), "table index -1 out of range for arity 3"),
        (lambda: BooleanFunction(3, 0).bit(8), "table index 8 out of range for arity 3"),
        (lambda: word_at(-1, 3), "table index -1 out of range for arity 3"),
        (lambda: word_at(9, 3), "table index 9 out of range for arity 3"),
        (lambda: BooleanFunction(3, 0).bit(1.0), "table index 1.0 out of range for arity 3"),
        (
            lambda: BooleanFunction.projection(3, 1).restrict(1.5, 0),
            "variable index 1.5 out of range 1..3",
        ),
        (lambda: list(words(-1)), "arity must be nonnegative, got -1"),
        (lambda: words(1.5), "arity must be nonnegative, got 1.5"),
        # Capped before itertools.product allocates a slot per position.
        pytest.param(lambda: words(25), "arity 25 is above the table cap 24", id="words(25)"),
        pytest.param(
            lambda: words(10**9), "arity 1000000000 is above the table cap 24", id="words(10**9)"
        ),
        (lambda: BooleanFunction(1.5, 0), "arity must lie in 0..24, got 1.5"),
        (lambda: BooleanFunction(2, 1.5), "table value out of range for arity 2"),
        # Named: an automatic id repeating a message above would renumber that case.
        pytest.param(
            lambda: BooleanFunction.constant(1.5, 1),
            "arity must lie in 0..24, got 1.5",
            id="constant(1.5, 1)",
        ),
        pytest.param(
            lambda: BooleanFunction.constant(26, 1),
            "arity must lie in 0..24, got 26",
            id="constant(26, 1)",
        ),
        pytest.param(
            lambda: BooleanFunction.projection(1.5, 1),
            "arity must lie in 0..24, got 1.5",
            id="projection(1.5, 1)",
        ),
        pytest.param(
            lambda: BooleanFunction.projection(26, 1),
            "arity must lie in 0..24, got 26",
            id="projection(26, 1)",
        ),
        pytest.param(
            lambda: BooleanFunction.from_predicate(25, lambda word: 0),
            "arity must lie in 0..24, got 25",
            id="from_predicate(25, p)",
        ),
        pytest.param(
            lambda: BooleanFunction.from_predicate(1.5, lambda word: 0),
            "arity must lie in 0..24, got 1.5",
            id="from_predicate(1.5, p)",
        ),
        pytest.param(
            lambda: BooleanFunction.from_predicate(-1, lambda word: 0),
            "arity must lie in 0..24, got -1",
            id="from_predicate(-1, p)",
        ),
        (
            lambda: BooleanFunction.from_values([0, 1, 1.0, 0]),
            "table entry must be 0 or 1, got 1.0",
        ),
        (
            lambda: BooleanFunction.projection(3, 1).restrict(1, 1.0),
            "value must be 0 or 1, got 1.0",
        ),
        (
            lambda: BooleanFunction.projection(3, 1).restrict_many([(2, 0), (2, 1)]),
            "variable 2 restricted twice",
        ),
        (
            lambda: BooleanFunction.projection(3, 1).negate_inputs((0, 1)),
            "offset length 2 does not match arity 3",
        ),
        (lambda: LayerDecomposition(2, (), 0), "a decomposition needs at least one layer"),
        (
            lambda: LayerDecomposition(2, ((), ((1, 0), (2, 0))), 0),
            "layers must be nonempty",
        ),
        (
            lambda: LayerDecomposition(2, (((1, 0), (2, 2)),), 0),
            "canalizing input must be a bit: 2",
        ),
        (
            lambda: LayerDecomposition(3, (((1, 0),), ((1, 1), (2, 0), (3, 0))), 0),
            "variable 1 appears in two layers",
        ),
        (lambda: parse_decomposition("[1:0, 2:0]"), "expected 'b; [...]', got '[1:0, 2:0]'"),
        (
            lambda: SymmetryPartition(3, ((2,), (1, 3))),
            "classes must be sorted by smallest member",
        ),
        (lambda: SymmetryPartition(3, ((1, 2), (2, 3))), "classes do not partition 1..3"),
        (lambda: ncf_cert_formula((1, 2), 2), "output bit must be 0 or 1, got 2"),
        (lambda: pell_like(-1), "index must be nonnegative, got -1"),
        (lambda: s_symmetric_triple_sum(4, 5), "symmetry level 5 out of range 1..4"),
        # Integers only: a float or a string is refused rather than truncated,
        # matched against nothing, or left to a bare TypeError.
        pytest.param(
            lambda: LayerDecomposition.from_pairs(2, [[(1.0, 0), (2, 0)]], 0),
            "variable index must be an integer, got 1.0",
            id="LayerDecomposition.from_pairs(2, [[(1.0, 0), (2, 0)]], 0)",
        ),
        pytest.param(
            lambda: LayerDecomposition.from_pairs(2, [[(1, 0.9), (2, 0)]], 0),
            "canalizing input must be a bit: 0.9",
            id="LayerDecomposition.from_pairs(2, [[(1, 0.9), (2, 0)]], 0)",
        ),
        pytest.param(
            lambda: LayerDecomposition(2, (((1.5, 0), (2, 0)),), 0),
            "variable index must be an integer, got 1.5",
            id="LayerDecomposition(2, (((1.5, 0), (2, 0)),), 0)",
        ),
        pytest.param(
            lambda: LayerDecomposition(2.5, (((1, 0), (2, 0)),), 0),
            "arity must be an integer, got 2.5",
            id="LayerDecomposition(2.5, (((1, 0), (2, 0)),), 0)",
        ),
        pytest.param(
            lambda: ncf_cert_formula((2.9,), 0),
            "bad layer structure (2.9,)",
            id="ncf_cert_formula((2.9,), 0)",
        ),
        pytest.param(
            lambda: ncf_cert_formula(("x",), 0),
            "bad layer structure ('x',)",
            id="ncf_cert_formula(('x',), 0)",
        ),
        pytest.param(
            lambda: count_by_layers(3, 1.5),
            "layer count must be an integer, got 1.5",
            id="count_by_layers(3, 1.5)",
        ),
        pytest.param(
            lambda: count_s_symmetric(3, 1.5),
            "symmetry level must be an integer, got 1.5",
            id="count_s_symmetric(3, 1.5)",
        ),
        pytest.param(
            lambda: list(enumerate_ncfs(3, layer_count=1.5)),
            "layer count must be an integer, got 1.5",
            id="enumerate_ncfs(3, layer_count=1.5)",
        ),
        pytest.param(
            lambda: list(enumerate_ncfs(3, layer_count="1")),
            "layer count must be an integer, got '1'",
            id="enumerate_ncfs(3, layer_count='1')",
        ),
        pytest.param(
            lambda: count_total(2.5),
            "arity must be an integer, got 2.5",
            id="count_total(2.5)",
        ),
        pytest.param(
            lambda: count_total("3"),
            "arity must be an integer, got '3'",
            id="count_total('3')",
        ),
        pytest.param(
            lambda: verify(2.5),
            "arity must be an integer, got 2.5",
            id="verify(2.5)",
        ),
        pytest.param(
            lambda: list(enumerate_ncfs(2.5)),
            "arity must be an integer, got 2.5",
            id="enumerate_ncfs(2.5)",
        ),
        pytest.param(
            lambda: list(layer_structures(2.5)),
            "arity must be an integer, got 2.5",
            id="layer_structures(2.5)",
        ),
        pytest.param(
            lambda: pell_like(2.5),
            "index must be an integer, got 2.5",
            id="pell_like(2.5)",
        ),
        pytest.param(
            lambda: s_symmetric_triple_sum(3, "a"),
            "symmetry level must be an integer, got 'a'",
            id="s_symmetric_triple_sum(3, 'a')",
        ),
        pytest.param(
            lambda: list(enumerate_ncfs(3, max_arity="x")),
            "guard 'enumeration' limit must be an integer, got 'x'",
            id="enumerate_ncfs(3, max_arity='x')",
        ),
        pytest.param(
            lambda: list(enumerate_ncfs(3, max_arity=True)),
            "guard 'enumeration' limit must be an integer, got True",
            id="enumerate_ncfs(3, max_arity=True)",
        ),
        pytest.param(
            lambda: verify(3, exhaustive_max="x"),
            "exhaustive_max must be an integer, got 'x'",
            id="verify(3, exhaustive_max='x')",
        ),
        pytest.param(
            lambda: verify(3, exhaustive_max=True),
            "exhaustive_max must be an integer, got True",
            id="verify(3, exhaustive_max=True)",
        ),
        pytest.param(
            lambda: cert_profile(CASCADE, max_arity="x"),
            "guard 'certificate' limit must be an integer, got 'x'",
            id="cert_profile(f, max_arity='x')",
        ),
        pytest.param(
            lambda: cert_profile(CASCADE, max_arity=2.5),
            "guard 'certificate' limit must be an integer, got 2.5",
            id="cert_profile(f, max_arity=2.5)",
        ),
        pytest.param(
            lambda: cert_profile(CASCADE, with_block_sensitivity=True, block_max_arity=None),
            "guard 'block sensitivity' limit must be an integer, got None",
            id="cert_profile(f, with_block_sensitivity=True, block_max_arity=None)",
        ),
        pytest.param(
            lambda: symmetry_report(CASCADE, max_arity=None),
            "guard 'automorphism' limit must be an integer, got None",
            id="symmetry_report(f, max_arity=None)",
        ),
        pytest.param(
            lambda: is_strongly_asymmetric(CASCADE, max_arity="8"),
            "guard 'automorphism' limit must be an integer, got '8'",
            id="is_strongly_asymmetric(f, max_arity='8')",
        ),
        pytest.param(
            lambda: certificate_at(CASCADE, (0, 0, 0), max_arity="x"),
            "guard 'certificate' limit must be an integer, got 'x'",
            id="certificate_at(f, w, max_arity='x')",
        ),
        pytest.param(
            lambda: block_sensitivity(CASCADE, max_arity=8.0),
            "guard 'block sensitivity' limit must be an integer, got 8.0",
            id="block_sensitivity(f, max_arity=8.0)",
        ),
        pytest.param(
            lambda: cert_profile(CASCADE, decomposition="1; [3:1 | 1:0, 2:0]"),
            "decomposition must be a LayerDecomposition of arity 3, got '1; [3:1 | 1:0, 2:0]'",
            id="cert_profile(f, decomposition=str)",
        ),
        pytest.param(
            lambda: LayerDecomposition(2, ((1, (2, 0)),), 0),
            "bad layer entry 1",
            id="LayerDecomposition(2, ((1, (2, 0)),), 0)",
        ),
        # These ended in a bare TypeError, or in an answer for a float bit.
        pytest.param(
            lambda: word_at(1, 2.5),
            "table index 1 out of range for arity 2.5",
            id="word_at(1, 2.5)",
        ),
        pytest.param(
            lambda: AnfPolynomial.parse("x1", 2.5),
            "arity must be an integer, got 2.5",
            id="AnfPolynomial.parse('x1', 2.5)",
        ),
        pytest.param(
            lambda: check_anf("x1", "2"),
            "arity must be an integer, got '2'",
            id="check_anf('x1', '2')",
        ),
        pytest.param(
            lambda: CASCADE.permute_inputs((1.0, 2, 3)),
            "(1.0, 2, 3) is not a permutation of 1..3",
            id="f.permute_inputs((1.0, 2, 3))",
        ),
        pytest.param(
            lambda: cycle_notation(("2", 1)),
            "('2', 1) is not a permutation of 1..2",
            id="cycle_notation(('2', 1))",
        ),
        pytest.param(
            lambda: SymmetryPartition("2", ((1,),)),
            "arity must be an integer, got '2'",
            id="SymmetryPartition('2', ((1,),))",
        ),
        pytest.param(
            lambda: SymmetryPartition(1.0, ((1,),)),
            "arity must be an integer, got 1.0",
            id="SymmetryPartition(1.0, ((1,),))",
        ),
        pytest.param(
            lambda: ncf_cert_formula((2,), 1.0),
            "output bit must be 0 or 1, got 1.0",
            id="ncf_cert_formula((2,), 1.0)",
        ),
        pytest.param(
            lambda: LayerDecomposition(2, (5,), 0),
            "bad layer 5",
            id="LayerDecomposition(2, (5,), 0)",
        ),
        pytest.param(
            lambda: LayerDecomposition.from_pairs(2, [[1, (2, 0)]], 0),
            "bad layer entry 1",
            id="LayerDecomposition.from_pairs(2, [[1, (2, 0)]], 0)",
        ),
        # A container that is not iterable ended in a bare TypeError.
        pytest.param(
            lambda: LayerDecomposition(2, 5, 0),
            "bad layers 5",
            id="LayerDecomposition(2, 5, 0)",
        ),
        pytest.param(
            lambda: LayerDecomposition.from_pairs(2, 5, 0),
            "bad layers 5",
            id="LayerDecomposition.from_pairs(2, 5, 0)",
        ),
        pytest.param(
            lambda: SymmetryPartition(2, 5),
            "bad symmetry classes 5",
            id="SymmetryPartition(2, 5)",
        ),
        pytest.param(
            lambda: SymmetryPartition(2, (5,)),
            "bad symmetry class 5",
            id="SymmetryPartition(2, (5,))",
        ),
        pytest.param(
            lambda: AnfPolynomial(2, 5),
            "bad monomials 5",
            id="AnfPolynomial(2, 5)",
        ),
        pytest.param(
            lambda: AnfPolynomial(2, frozenset([5])),
            "bad monomial 5",
            id="AnfPolynomial(2, frozenset([5]))",
        ),
        # These containers ended in a bare TypeError too.
        pytest.param(
            lambda: ncf_cert_formula(5, 0),
            "bad layer structure 5",
            id="ncf_cert_formula(5, 0)",
        ),
        pytest.param(
            lambda: ncf_cert_formula(None, 0),
            "bad layer structure None",
            id="ncf_cert_formula(None, 0)",
        ),
        pytest.param(
            lambda: index_of(5),
            "bad word 5",
            id="index_of(5)",
        ),
        pytest.param(
            lambda: CASCADE.evaluate(5),
            "bad word 5",
            id="f.evaluate(5)",
        ),
        pytest.param(
            lambda: certificate_at(CASCADE, 5),
            "bad word 5",
            id="certificate_at(f, 5)",
        ),
        pytest.param(
            lambda: sensitivity_at(CASCADE, 5),
            "bad word 5",
            id="sensitivity_at(f, 5)",
        ),
        pytest.param(
            lambda: permutation_cycles(5, 3),
            "5 is not a permutation of 1..3",
            id="permutation_cycles(5, 3)",
        ),
        pytest.param(
            lambda: cycle_notation(5),
            "bad permutation 5",
            id="cycle_notation(5)",
        ),
        pytest.param(
            lambda: CASCADE.permute_inputs(5),
            "5 is not a permutation of 1..3",
            id="f.permute_inputs(5)",
        ),
        pytest.param(
            lambda: CASCADE.transform(5, (0, 0, 0), 0),
            "5 is not a permutation of 1..3",
            id="f.transform(5, (0, 0, 0), 0)",
        ),
        pytest.param(
            lambda: CASCADE.negate_inputs(5),
            "bad offset 5",
            id="f.negate_inputs(5)",
        ),
        pytest.param(
            lambda: CASCADE.restrict_many(5),
            "bad assignments 5",
            id="f.restrict_many(5)",
        ),
        pytest.param(
            lambda: CASCADE.restrict_many([5]),
            "bad assignment 5",
            id="f.restrict_many([5])",
        ),
        pytest.param(
            lambda: BooleanFunction.from_values(5),
            "bad table values 5",
            id="BooleanFunction.from_values(5)",
        ),
        pytest.param(
            lambda: AnfPolynomial.from_terms(2, 5),
            "bad terms 5",
            id="AnfPolynomial.from_terms(2, 5)",
        ),
        pytest.param(
            lambda: AnfPolynomial.from_terms(2, [5]),
            "bad term 5",
            id="AnfPolynomial.from_terms(2, [5])",
        ),
        pytest.param(
            lambda: AnfPolynomial.from_terms(2, [[[1]]]),
            "variable index [1] out of range 1..2",
            id="AnfPolynomial.from_terms(2, [[[1]]])",
        ),
    ],
)
def test_library_input_errors(call, message):
    with pytest.raises(InvalidInputError) as excinfo:
        call()
    assert type(excinfo.value) is InvalidInputError
    assert str(excinfo.value) == message


def test_from_pairs_sorts_each_layer():
    # parse_decomposition reads entries in text order and relies on this.
    want = LayerDecomposition(2, (((1, 1), (2, 0)),), 0)
    assert parse_decomposition("0; [2:0, 1:1]") == want
    assert LayerDecomposition.from_pairs(2, [[(2, 0), (1, 1)]], 0) == want


#: Every public integer parameter: an arity, table index, variable index,
#: layer count, symmetry level, layer size, permutation entry or guard limit,
#: as a call of the value under test.  Each must be a plain ``int``.
INTEGER_ARGUMENTS = {
    "BooleanFunction(x, 0)": lambda x: BooleanFunction(x, 0),
    "BooleanFunction(2, x)": lambda x: BooleanFunction(2, x),
    "constant(x, 1)": lambda x: BooleanFunction.constant(x, 1),
    "projection(x, 1)": lambda x: BooleanFunction.projection(x, 1),
    "projection(3, x)": lambda x: BooleanFunction.projection(3, x),
    "from_predicate(x, p)": lambda x: BooleanFunction.from_predicate(x, lambda word: 0),
    "words(x)": lambda x: words(x),
    "word_at(x, 2)": lambda x: word_at(x, 2),
    "word_at(1, x)": lambda x: word_at(1, x),
    "f.bit(x)": lambda x: CASCADE.bit(x),
    "f.restrict(x, 0)": lambda x: CASCADE.restrict(x, 0),
    "f.restrict_many([(x, 0)])": lambda x: CASCADE.restrict_many([(x, 0)]),
    "f.flip_input(x)": lambda x: CASCADE.flip_input(x),
    "f.is_essential(x)": lambda x: CASCADE.is_essential(x),
    "f.swap_inputs(x, 2)": lambda x: CASCADE.swap_inputs(x, 2),
    "f.swap_inputs(2, x)": lambda x: CASCADE.swap_inputs(2, x),
    "equivalent(f, x, 2)": lambda x: equivalent(CASCADE, x, 2),
    "f.permute_inputs((x, 2, 3))": lambda x: CASCADE.permute_inputs((x, 2, 3)),
    "f.transform((x, 2, 3), beta, 0)": lambda x: CASCADE.transform((x, 2, 3), (0, 0, 0), 0),
    "cycle_notation((2, x))": lambda x: cycle_notation((2, x)),
    "AnfPolynomial(x, {}).to_function()": lambda x: AnfPolynomial(x, frozenset()).to_function(),
    "AnfPolynomial(3, {{x}})": lambda x: AnfPolynomial(3, frozenset({frozenset({x})})),
    "AnfPolynomial.from_terms(x, [])": lambda x: AnfPolynomial.from_terms(x, []),
    "evaluate_anf(x, [])": lambda x: evaluate_anf(x, []),
    "LayerDecomposition(x, L, 0)": lambda x: LayerDecomposition(x, (((1, 0), (2, 0)),), 0),
    "LayerDecomposition(2, ((x, 0), (2, 0)), 0)": (
        lambda x: LayerDecomposition(2, (((x, 0), (2, 0)),), 0)
    ),
    "from_pairs(x, L, 0)": lambda x: LayerDecomposition.from_pairs(x, [[(1, 0), (2, 0)]], 0),
    "from_pairs(2, [(2, 0), (x, 0)], 0)": (
        lambda x: LayerDecomposition.from_pairs(2, [[(2, 0), (x, 0)]], 0)
    ),
    "ncf_cert_formula((x, 2), 0)": lambda x: ncf_cert_formula((x, 2), 0),
    "ncf_cert_formula((1, x), 0)": lambda x: ncf_cert_formula((1, x), 0),
    "SymmetryPartition(x, ((1,),))": lambda x: SymmetryPartition(x, ((1,),)),
    "SymmetryPartition(2, ((x, 2),))": lambda x: SymmetryPartition(2, ((x, 2),)),
    "count_total(x)": lambda x: count_total(x),
    "count_table(x)": lambda x: count_table(x),
    "count_by_layers(x, 1)": lambda x: count_by_layers(x, 1),
    "count_by_layers(3, x)": lambda x: count_by_layers(3, x),
    "count_s_symmetric(x, 1)": lambda x: count_s_symmetric(x, 1),
    "count_s_symmetric(3, x)": lambda x: count_s_symmetric(3, x),
    "s_symmetric_triple_sum(x, 1)": lambda x: s_symmetric_triple_sum(x, 1),
    "s_symmetric_triple_sum(3, x)": lambda x: s_symmetric_triple_sum(3, x),
    "strongly_asymmetric_structure_sum(x)": lambda x: strongly_asymmetric_structure_sum(x),
    "count_strongly_asym_max_layers(x)": lambda x: count_strongly_asym_max_layers(x),
    "pell_like(x)": lambda x: pell_like(x),
    "layer_structures(x)": lambda x: list(layer_structures(x)),
    "enumerate_ncfs(x)": lambda x: list(enumerate_ncfs(x)),
    "verify(x)": lambda x: verify(x),
    "enumerate_ncfs(3, max_arity=x)": lambda x: list(enumerate_ncfs(3, max_arity=x)),
    "verify(3, exhaustive_max=x)": lambda x: verify(3, exhaustive_max=x),
    "cert_profile(f, max_arity=x)": lambda x: cert_profile(CASCADE, max_arity=x),
    "cert_profile(f, block_max_arity=x)": (
        lambda x: cert_profile(CASCADE, with_block_sensitivity=True, block_max_arity=x)
    ),
    "certificate_at(f, w, max_arity=x)": (
        lambda x: certificate_at(CASCADE, (0, 0, 0), max_arity=x)
    ),
    "block_sensitivity(f, max_arity=x)": lambda x: block_sensitivity(CASCADE, max_arity=x),
    "symmetry_report(f, max_arity=x)": lambda x: symmetry_report(CASCADE, max_arity=x),
    "is_strongly_asymmetric(f, max_arity=x)": (
        lambda x: is_strongly_asymmetric(CASCADE, max_arity=x)
    ),
}
#: Integer parameters whose None is documented: all layer counts, or the
#: arity read off the text.
OPTIONAL_INTEGER_ARGUMENTS = {
    "enumerate_ncfs(3, layer_count=x)": lambda x: list(enumerate_ncfs(3, layer_count=x)),
    "check_anf('x1', x)": lambda x: check_anf("x1", x),
    "AnfPolynomial.parse('x1', x)": lambda x: AnfPolynomial.parse("x1", x),
}
#: Every bit parameter: an output bit, canalizing input, word entry, table
#: entry, restricted value, output flip or offset entry.  A bool is a bit.
BIT_ARGUMENTS = {
    "LayerDecomposition(2, L, x)": lambda x: LayerDecomposition(2, (((1, 0), (2, 0)),), x),
    "LayerDecomposition(2, ((1, x), (2, 0)), 0)": (
        lambda x: LayerDecomposition(2, (((1, x), (2, 0)),), 0)
    ),
    "from_pairs(2, [(2, 0), (1, x)], 0)": (
        lambda x: LayerDecomposition.from_pairs(2, [[(2, 0), (1, x)]], 0)
    ),
    "ncf_cert_formula((1, 2), x)": lambda x: ncf_cert_formula((1, 2), x),
    "index_of((x, 0))": lambda x: index_of((x, 0)),
    "f.evaluate((x, 0, 0))": lambda x: CASCADE.evaluate((x, 0, 0)),
    "certificate_at(f, (x, 0, 0))": lambda x: certificate_at(CASCADE, (x, 0, 0)),
    "sensitivity_at(f, (x, 0, 0))": lambda x: sensitivity_at(CASCADE, (x, 0, 0)),
    "from_values([0, x])": lambda x: BooleanFunction.from_values([0, x]),
    "constant(2, x)": lambda x: BooleanFunction.constant(2, x),
    "f.restrict(1, x)": lambda x: CASCADE.restrict(1, x),
    "f.transform(sigma, beta, x)": lambda x: CASCADE.transform((1, 2, 3), (0, 0, 0), x),
    "f.negate_inputs((x, 0, 0))": lambda x: CASCADE.negate_inputs((x, 0, 0)),
}


def _argument_cases(rule, calls, values):
    return [
        pytest.param(rule, call, value, id=f"{name}-{value!r}")
        for name, call in calls.items()
        for value in values
    ]


@pytest.mark.parametrize(
    "rule, call, value",
    [
        *_argument_cases("refused", INTEGER_ARGUMENTS, (True, False, 1.0, "1", None)),
        *_argument_cases("refused", OPTIONAL_INTEGER_ARGUMENTS, (True, False, 1.0, "1")),
        *_argument_cases("refused", BIT_ARGUMENTS, (1.0, "1", None)),
        *_argument_cases("a bit", BIT_ARGUMENTS, (True, False)),
    ],
)
def test_one_argument_rule(rule, call, value):
    # A refusal is the typed error, never a bare TypeError or an answer.
    if rule == "refused":
        with pytest.raises(InvalidInputError):
            call(value)
    else:  # taken as 0 or 1 and stored as an int, so the reprs match too
        assert repr(call(value)) == repr(call(int(value)))


def test_constructors_check_arity_before_building_the_table():
    calls = 0

    def counting(word):
        nonlocal calls
        calls += 1
        return 0

    with pytest.raises(InvalidInputError):
        BooleanFunction.from_predicate(25, counting)
    assert calls == 0
    # A 2^26-bit table is 8 MiB; the refusal allocates next to nothing.
    for build in (BooleanFunction.constant, BooleanFunction.projection):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError):
                build(26, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, build


def test_max_layer_count_checks_the_count_guard():
    # Like count_total and count_table, it refuses an arity above the count
    # guard before computing anything, and answers at the guard itself.
    with pytest.raises(GuardExceededError) as excinfo:
        count_strongly_asym_max_layers(201)
    assert (excinfo.value.guard, excinfo.value.arity) == ("count", 201)
    assert count_strongly_asym_max_layers(200) == factorial(200) << 199


def test_cert_profile_guard_and_empty_layer_counts(capsys):
    # The library checks the certificate guard itself, not only the CLI.
    with pytest.raises(GuardExceededError) as excinfo:
        cert_profile(BooleanFunction(15, 0))
    assert (excinfo.value.guard, excinfo.value.arity) == ("certificate", 15)
    # Three variables have one or two layers.
    assert list(enumerate_ncfs(3, layer_count=0)) == []
    assert list(enumerate_ncfs(3, layer_count=3)) == []
    assert main(["enumerate", "3", "--layers", "0"]) == 0
    assert capsys.readouterr().out == "\n"
