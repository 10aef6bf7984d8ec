import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crngame import Crn, CrnDocument, ParseError, make_crn, parse, serialize
from crngame.crnfile import load
from crngame.data import path as data_path


class TestParse:
    def test_majority_pair(self):
        doc = parse("2X + Y -> 3X @ 1\nX + 2Y -> 3Y @ 1\n")
        crn = doc.crn
        assert crn.species.names == ("X", "Y")
        assert len(crn.reactions) == 2
        assert crn.reactions[0].reactants == ((0, 2), (1, 1))
        assert crn.reactions[0].products == ((0, 3),)
        assert crn.reactions[0].rate_constant == 1.0

    def test_scientific_rate(self):
        doc = parse("A -> B @ 1e9\nB -> A @ 1e9\n")
        assert doc.crn.reactions[0].rate_constant == 1e9
        assert doc.crn.species.names == ("A", "B")

    def test_equal_sides_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("X + Y -> X + Y @ 1\n")
        assert "equal" in str(err.value)
        assert err.value.line == 1

    def test_count_with_and_without_space(self):
        a = parse("2X + Y -> 3X @ 1\n")
        b = parse("2 X + Y -> 3 X @ 1\n")
        assert a == b

    def test_comments_and_blank_lines(self):
        doc = parse("# header\n\n2X + Y -> 3X @ 1  # trailing\n\n")
        assert len(doc.crn.reactions) == 1

    def test_crlf_accepted(self):
        doc = parse("2X + Y -> 3X @ 1\r\nX + 2Y -> 3Y @ 1\r\n")
        assert len(doc.crn.reactions) == 2

    def test_empty_side_zero(self):
        doc = parse("0 -> X @ 2.5\nX -> 0 @ 1\n")
        assert doc.crn.reactions[0].reactants == ()
        assert doc.crn.reactions[0].arity == 0
        assert doc.crn.reactions[1].products == ()

    def test_init_lines(self):
        doc = parse("2X + Y -> 3X @ 1\ninit X = 5120\ninit Y = 4880\n")
        assert doc.initial_counts == {"X": 5120, "Y": 4880}
        assert doc.initial_state().tolist() == [5120, 4880]

    def test_init_forward_reference_allowed(self):
        doc = parse("init X = 5\n2X + Y -> 3X @ 1\n")
        assert doc.initial_counts == {"X": 5}

    def test_repeated_species_in_side_accumulates(self):
        doc = parse("X + X -> Y @ 1\n")
        assert doc.crn.reactions[0].reactants == ((0, 2),)

    def test_empty_text_is_empty_crn(self):
        doc = parse("")
        assert doc.crn == Crn.empty()
        assert doc.initial_counts == {}

    def test_coefficient_bound_is_inclusive(self):
        doc = parse("1000000X -> 0001000000Y @ 1\nX -> 400000Y + 600000Y @ 1\n")
        assert doc.crn.reactions[0].reactants == ((0, 10**6),)
        assert doc.crn.reactions[0].products == ((1, 10**6),)
        assert doc.crn.reactions[1].products == ((1, 10**6),)

    def test_leading_zeros_of_any_script(self):
        # U+0660 is ARABIC-INDIC DIGIT ZERO; int() reads the counts as 5 and 3
        doc = parse("\u0660" * 20 + "0\u06603X -> Y @ 1\ninit X = " + "\u0660" * 20 + "5\n")
        assert doc.crn.reactions[0].reactants == ((0, 3),)
        assert doc.initial_counts == {"X": 5}

    def test_first_appearance_order(self):
        doc = parse("B + A -> C @ 1\nD -> A @ 2\n")
        assert doc.crn.species.names == ("B", "A", "C", "D")


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("X -> Y @ 0", "positive"),
        ("X -> Y @ -1", "unexpected character"),
        ("X -> Y @ 1e999", "positive"),
        ("X -> Y", "expected '@'"),
        ("X -> @ 1", "species"),
        ("-> Y @ 1", "species"),
        ("X -> Y @ 1 Z", "trailing"),
        ("X + -> Y @ 1", "species"),
        ("init Z = 5", "undeclared"),
        ("X -> Y @ 1\ninit X = 2\ninit X = 3", "duplicate init"),
        ("X -> Y @ 1\nX -> Y @ 1", "duplicate reaction"),
        ("2 -> Y @ 1", "species"),
        ("X -> Y @ 1.2.3", "unexpected character"),
        ("init X = 1.5", "plain integer"),
        ("0X -> Y @ 1", "zero"),
        ("x? -> Y @ 1", "unexpected character"),
        ("X -> Y @ 1\ninit X = 9223372036854775808",
         "line 2, column 10: initial count must be at most 9223372036854775807"),
        # counts past int()'s 4,300-digit limit
        pytest.param(
            "X -> Y @ 1\ninit X = " + "1" * 5000,
            "line 2, column 10: initial count must be at most 9223372036854775807",
            id="init-count-of-5000-digits"),
        pytest.param(
            "1" * 5000 + "X -> Y @ 1",
            "line 1, column 1: stoichiometric coefficient must be at most 1000000",
            id="reactant-count-of-5000-digits"),
        pytest.param(
            "X -> Y + " + "2" * 5000 + " Z @ 1",
            "line 1, column 10: stoichiometric coefficient must be at most 1000000",
            id="product-count-of-5000-digits"),
        ("1000001X -> Y @ 1",
         "line 1, column 1: stoichiometric coefficient must be at most 1000000"),
        ("100000000000000000000X -> Y @ 1",
         "stoichiometric coefficient must be at most 1000000"),
        # the bound holds for the sum of a species' terms on one side
        ("X -> 500000Y + 500001Y @ 1",
         "line 1, column 16: stoichiometric coefficient must be at most 1000000"),
        pytest.param(
            "X -> Y @ 1\ninit X = " + "\u0660" * 20 + "9" * 20,
            "line 2, column 10: initial count must be at most 9223372036854775807",
            id="init-count-past-unicode-zeros"),
    ])
    def test_rejects_with_position(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)
        assert err.value.line >= 1
        assert err.value.column >= 1

    def test_error_positions_point_at_line(self):
        with pytest.raises(ParseError) as err:
            parse("2X + Y -> 3X @ 1\nX + Y -> X + Y @ 2\n")
        assert err.value.line == 2

    def test_errors_are_reproducible(self):
        text = "X -> Y @ nope"
        first = pytest.raises(ParseError, parse, text).value
        second = pytest.raises(ParseError, parse, text).value
        assert (first.line, first.column, first.message) == \
            (second.line, second.column, second.message)


class TestSerialize:
    def test_catalyzed_document(self):
        doc = parse("2X + Y + A -> 3X + A @ 1\nX + 2Y + B -> 3Y + B @ 1\n")
        text = serialize(doc)
        assert text == ("2X + Y + A -> 3X + A @ 1\n"
                        "X + 2Y + B -> 3Y + B @ 1\n")

    def test_empty_document(self):
        assert serialize(parse("")) == ""

    def test_init_line_present(self):
        doc = parse("2X + Y -> 3X @ 1\ninit X = 5120\n")
        assert "init X = 5120\n" in serialize(doc)

    def test_sides_sorted_by_table_order(self):
        doc = parse("Y + 2X -> 3Y @ 1\n")
        # table order is (Y, X): Y first within the side
        assert serialize(doc) == "Y + 2X -> 3Y @ 1\n"

    def test_rate_shortest_roundtrip(self):
        assert serialize(parse("A -> B @ 1e9\n")) == "A -> B @ 1000000000\n"
        assert serialize(parse("A -> B @ 0.5\n")) == "A -> B @ 0.5\n"
        assert serialize(parse("A -> B @ 1.0\n")) == "A -> B @ 1\n"

    def test_idempotent_on_accepted_text(self):
        text = "2 X   +  Y->3X@1.000\n# comment\ninit   X   = 4\n"
        once = serialize(parse(text))
        assert serialize(parse(once)) == once


class TestShippedFiles:
    @pytest.mark.parametrize("name", ["r.crn", "r_prime.crn", "nature.crn"])
    def test_roundtrip_identity(self, name):
        doc = load(data_path(name))
        assert parse(serialize(doc)) == doc

    def test_catalyzed_file_defaults(self):
        doc = load(data_path("r_prime.crn"))
        assert doc.initial_counts == {"A": 100, "B": 100}
        assert doc.crn.species.names == ("X", "Y", "A", "B")


# --- round-trip property -----------------------------------------------------

_names = st.lists(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
        lambda s: s != "init"),
    min_size=1, max_size=5, unique=True)


@st.composite
def documents(draw):
    """Random documents expressible in the text format.

    Every species appears in some reaction (the format has no standalone
    species declaration), so inits are drawn over the used species only.
    """
    names = draw(_names)
    dim = len(names)
    vec = st.tuples(*[st.integers(0, 4)] * dim)
    n_rxns = draw(st.integers(1, 4))
    specs = []
    seen = set()
    for _ in range(n_rxns):
        r, p = draw(vec), draw(vec)
        k = draw(st.floats(1e-6, 1e12))
        if r == p or (r, p, k) in seen:
            continue
        seen.add((r, p, k))
        specs.append((
            {names[i]: c for i, c in enumerate(r) if c},
            {names[i]: c for i, c in enumerate(p) if c},
            k,
        ))
    if not specs:
        specs = [({names[0]: 1}, {}, 1.0)]
    crn = make_crn(specs)
    used = list(crn.species.names)
    inits = draw(st.dictionaries(st.sampled_from(used), st.integers(0, 10**6),
                                 max_size=len(used)))
    return CrnDocument(crn, inits)


@given(documents())
@settings(max_examples=200)
def test_roundtrip_parse_of_serialize(doc):
    assert parse(serialize(doc)) == doc


@given(documents())
@settings(max_examples=100)
def test_serialize_after_parse_is_idempotent(doc):
    text = serialize(doc)
    assert serialize(parse(text)) == text


# --- fuzzing ------------------------------------------------------------------

_FUZZ_ALPHABET = "XYZAB abc012->@=+#.\t\ne\\(){}"


@given(st.text(alphabet=_FUZZ_ALPHABET, max_size=120))
@settings(max_examples=400)
def test_parser_never_crashes_on_garbage(text):
    try:
        parse(text)
    except ParseError as err:
        assert err.line >= 1 and err.column >= 1


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_parser_never_crashes_on_arbitrary_unicode(text):
    try:
        parse(text)
    except ParseError:
        pass


def test_megabyte_input_finishes():
    rng = random.Random(1)
    junk = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(2**20))
    try:
        parse(junk)
    except ParseError:
        pass
