"""Property-based tests for the regular-language engine.

Random regex ASTs over a small alphabet, checked against brute-force
string semantics: boolean algebra, containment, star, minimisation, and
quotients must all agree with per-string membership.  The indexed
kernels (subset construction, alphabet partition, atom lookup and
emptiness) must build exactly what the overlap-scan versions they
replaced build, which stay here as the oracle.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.rlang import DFA, Regex, determinise, minimise, partition
from repro.rlang.charclass import MAX_CODEPOINT, CharSet
from repro.rlang.nfa import build_nfa
from repro.rlang.syntax import Alt, Concat, Epsilon, Lit, Node, Star

ALPHABET = "abc"


def leaf():
    return st.one_of(
        st.just(Epsilon()),
        st.sampled_from([Lit(CharSet.of(c)) for c in ALPHABET]),
        st.just(Lit(CharSet.of("ab"))),
    )


def regex_ast(max_depth=4):
    return st.recursive(
        leaf(),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Concat(*t)),
            st.tuples(inner, inner).map(lambda t: Alt(*t)),
            inner.map(Star),
        ),
        max_leaves=8,
    )


def strings(max_len=5):
    return st.text(alphabet=ALPHABET, max_size=max_len)


def regexes():
    return regex_ast().map(Regex.from_ast)


@st.composite
def regex_pair(draw):
    return draw(regexes()), draw(regexes())


class TestBooleanAlgebra:
    @given(regex_pair(), strings())
    @settings(max_examples=150, deadline=None)
    def test_union_semantics(self, pair, text):
        a, b = pair
        assert (a | b).matches(text) == (a.matches(text) or b.matches(text))

    @given(regex_pair(), strings())
    @settings(max_examples=150, deadline=None)
    def test_intersection_semantics(self, pair, text):
        a, b = pair
        assert (a & b).matches(text) == (a.matches(text) and b.matches(text))

    @given(regex_pair(), strings())
    @settings(max_examples=150, deadline=None)
    def test_difference_semantics(self, pair, text):
        a, b = pair
        assert (a - b).matches(text) == (a.matches(text) and not b.matches(text))

    @given(regexes(), strings())
    @settings(max_examples=150, deadline=None)
    def test_complement_semantics(self, a, text):
        assert (~a).matches(text) == (not a.matches(text))

    @given(regex_pair())
    @settings(max_examples=60, deadline=None)
    def test_de_morgan(self, pair):
        a, b = pair
        assert ~(a | b) == (~a & ~b)

    @given(regexes())
    @settings(max_examples=60, deadline=None)
    def test_double_complement(self, a):
        assert ~~a == a


class TestContainment:
    @given(regex_pair())
    @settings(max_examples=80, deadline=None)
    def test_operands_below_union(self, pair):
        a, b = pair
        assert a <= (a | b)
        assert b <= (a | b)

    @given(regex_pair())
    @settings(max_examples=80, deadline=None)
    def test_intersection_below_operands(self, pair):
        a, b = pair
        assert (a & b) <= a
        assert (a & b) <= b

    @given(regex_pair(), strings())
    @settings(max_examples=120, deadline=None)
    def test_containment_sound_for_membership(self, pair, text):
        a, b = pair
        if a <= b and a.matches(text):
            assert b.matches(text)


class TestStarAndConcat:
    @given(regexes())
    @settings(max_examples=60, deadline=None)
    def test_star_contains_base_and_empty(self, a):
        star = a.star()
        assert a <= star
        assert star.matches("")

    @given(regexes())
    @settings(max_examples=40, deadline=None)
    def test_star_idempotent(self, a):
        star = a.star()
        assert star.star() == star

    @given(regex_pair(), strings(max_len=4), strings(max_len=4))
    @settings(max_examples=100, deadline=None)
    def test_concat_semantics_witness(self, pair, u, v):
        a, b = pair
        if a.matches(u) and b.matches(v):
            assert (a + b).matches(u + v)


class TestWitnessesAndMinimisation:
    @given(regexes())
    @settings(max_examples=100, deadline=None)
    def test_example_is_member(self, a):
        example = a.example()
        if example is None:
            assert a.is_empty()
        else:
            assert a.matches(example)

    @given(regexes(), strings())
    @settings(max_examples=120, deadline=None)
    def test_minimisation_preserves_language(self, a, text):
        assert minimise(a.dfa).accepts(text) == a.matches(text)

    @given(regexes())
    @settings(max_examples=60, deadline=None)
    def test_examples_all_members(self, a):
        for example in a.examples(limit=5):
            assert a.matches(example)


def _brute_force_strings(max_len=4):
    for length in range(max_len + 1):
        for chars in itertools.product(ALPHABET, repeat=length):
            yield "".join(chars)


class TestQuotients:
    @given(regex_pair())
    @settings(max_examples=40, deadline=None)
    def test_right_quotient_brute_force(self, pair):
        a, b = pair
        quotient = a.strip_suffix(b)
        universe = list(_brute_force_strings(3))
        for u in universe:
            expected = any(b.matches(v) and a.matches(u + v) for v in universe)
            # quotient may contain u via suffixes longer than our brute
            # bound; only check the definite direction plus bounded agreement
            if expected:
                assert quotient.matches(u)

    @given(regex_pair())
    @settings(max_examples=40, deadline=None)
    def test_left_quotient_brute_force(self, pair):
        a, b = pair
        remainder = a.strip_prefix(b)
        universe = list(_brute_force_strings(3))
        for v in universe:
            expected = any(b.matches(u) and a.matches(u + v) for u in universe)
            if expected:
                assert remainder.matches(v)


def _shift_map(charset):
    """a->b, b->c, c->a (a bijection on the test alphabet)."""
    from repro.rlang.charclass import CharSet

    mapping = {"a": "b", "b": "c", "c": "a"}
    result = CharSet.empty()
    untouched = charset
    for src, dst in mapping.items():
        if src in charset:
            result = result.union(CharSet.of(dst))
            untouched = untouched.difference(CharSet.of(src))
    return result.union(untouched)


def _shift_str(text):
    return text.translate(str.maketrans("abc", "bca"))


class TestHomomorphicImage:
    @given(regexes(), strings())
    @settings(max_examples=100, deadline=None)
    def test_membership_transported(self, a, text):
        image = a.map_chars(_shift_map)
        if a.matches(text):
            assert image.matches(_shift_str(text))

    @given(regexes(), strings())
    @settings(max_examples=100, deadline=None)
    def test_bijection_exact(self, a, text):
        # for a bijective map the image contains exactly the mapped strings
        image = a.map_chars(_shift_map)
        assert image.matches(_shift_str(text)) == a.matches(text)

    @given(regex_pair())
    @settings(max_examples=40, deadline=None)
    def test_distributes_over_union(self, pair):
        a, b = pair
        lhs = (a | b).map_chars(_shift_map)
        rhs = a.map_chars(_shift_map) | b.map_chars(_shift_map)
        assert lhs == rhs

    @given(regex_pair())
    @settings(max_examples=30, deadline=None)
    def test_distributes_over_concat(self, pair):
        a, b = pair
        lhs = (a + b).map_chars(_shift_map)
        rhs = a.map_chars(_shift_map) + b.map_chars(_shift_map)
        assert lhs == rhs

    @given(regexes())
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_star(self, a):
        lhs = a.star().map_chars(_shift_map)
        rhs = a.map_chars(_shift_map).star()
        assert lhs == rhs


# -- indexed kernels against the overlap-scan versions they replaced --------

#: codepoints where interval arithmetic goes wrong first: the ends of the
#: universe and the neighbours of the small test alphabet
_EDGES = [0, 1, ord("a") - 1, ord("a"), ord("b"), ord("c"), ord("c") + 1,
          0x7F, 0xFFFF, MAX_CODEPOINT - 1, MAX_CODEPOINT]


def _oracle_partition(sets):
    boundaries = set()
    for cs in sets:
        for lo, hi in cs.intervals:
            boundaries.add(lo)
            boundaries.add(hi + 1)
    marks = sorted(boundaries)
    atoms = []
    for idx in range(len(marks) - 1):
        atom = CharSet([(marks[idx], marks[idx + 1] - 1)])
        if any(atom.overlaps(cs) for cs in sets):
            atoms.append(atom)
    return atoms


def _oracle_determinise(nfa):
    all_sets = [cs for edges in nfa.transitions.values() for cs, _ in edges]
    atoms = _oracle_partition(all_sets)
    start = nfa.epsilon_closure(frozenset({nfa.start}))
    index = {start: 0}
    order = [start]
    delta, accepting = [], set()

    def state_id(subset):
        if subset not in index:
            index[subset] = len(order)
            order.append(subset)
        return index[subset]

    pos = 0
    while pos < len(order):
        subset = order[pos]
        if nfa.accept in subset:
            accepting.add(pos)
        row = []
        for atom in atoms:
            targets = {
                dst
                for state in subset
                for charset, dst in nfa.transitions.get(state, ())
                if atom.overlaps(charset)
            }
            row.append(state_id(nfa.epsilon_closure(frozenset(targets))))
        row.append(state_id(frozenset()))
        delta.append(row)
        pos += 1
    return atoms, delta, accepting


def _oracle_atom_index(atoms, char):
    for idx, atom in enumerate(atoms):
        if char in atom:
            return idx
    return len(atoms)


@st.composite
def charsets(draw):
    """Single characters, multi-interval classes, their negations, and
    `.` (the whole universe), with interval ends at the edge codepoints."""
    kind = draw(st.sampled_from(["char", "class", "negated", "dot"]))
    if kind == "dot":
        return CharSet.universe()
    if kind == "char":
        return CharSet.of(draw(st.sampled_from(ALPHABET)))
    points = st.one_of(st.sampled_from(_EDGES),
                       st.integers(min_value=0, max_value=MAX_CODEPOINT))
    intervals = []
    for lo in draw(st.lists(points, min_size=1, max_size=4)):
        intervals.append((lo, lo + draw(st.integers(min_value=0, max_value=3))))
    charset = CharSet(intervals)
    return charset.complement() if kind == "negated" else charset


def wide_regex_ast():
    return st.recursive(
        st.one_of(st.just(Epsilon()), charsets().map(Lit)),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Concat(*t)),
            st.tuples(inner, inner).map(lambda t: Alt(*t)),
            inner.map(Star),
        ),
        max_leaves=8,
    )


class TestIndexedKernels:
    @given(wide_regex_ast())
    @settings(max_examples=200, deadline=None)
    def test_determinise_matches_overlap_scan(self, node):
        nfa = build_nfa(node)
        dfa = determinise(nfa)
        atoms, delta, accepting = _oracle_determinise(nfa)
        assert dfa.atoms == atoms
        assert dfa.delta == delta
        assert dfa.accepting == accepting

    @given(st.lists(charsets(), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_partition_matches_overlap_scan(self, sets):
        assert partition(sets) == _oracle_partition(sets)

    @given(st.lists(charsets(), max_size=5),
           st.lists(st.one_of(st.sampled_from(_EDGES),
                              st.integers(min_value=0, max_value=MAX_CODEPOINT)),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_atom_index_matches_linear_scan(self, sets, codes):
        atoms = partition(sets)
        dfa = DFA(atoms=atoms, delta=[], accepting=set())
        for code in codes:
            char = chr(code)
            assert dfa.atom_index(char) == _oracle_atom_index(atoms, char)

    @given(wide_regex_ast(), wide_regex_ast())
    @settings(max_examples=150, deadline=None)
    def test_is_empty_matches_live_states(self, left, right):
        a, b = Regex.from_ast(left), Regex.from_ast(right)
        for lang in (a, a & b, a - b):
            assert lang.dfa.is_empty() == (not lang.dfa.live_states())


# -- live-only subset construction and the one-sweep alphabet alignment -----


def _glued_nfas(left, right):
    """The NFAs that concatenation, star and left quotient glue from
    complete DFAs (sink states included) and hand to ``determinise``,
    over two languages and the right quotient of one by the other,
    whose DFA keeps its dead states."""
    from repro.rlang import ops

    a, b = Regex.from_ast(left).dfa, Regex.from_ast(right).dfa
    quotient = ops.right_quotient(a, b)
    nfas = []
    real = ops.determinise

    def capture(nfa):
        nfas.append(nfa)
        return real(nfa)

    ops.determinise = capture
    try:
        for x in (a, quotient):
            ops.concat_dfa(x, b)
            ops.concat_dfa(b, x)
            ops.star(x)
            ops.left_quotient(b, x)
    finally:
        ops.determinise = real
    return nfas


def _oracle_align(a, b):
    atoms = partition(list(a.atoms) + list(b.atoms))
    map_a = [a.atom_index(atom.sample()) for atom in atoms] + [len(a.atoms)]
    map_b = [b.atom_index(atom.sample()) for atom in atoms] + [len(b.atoms)]
    return atoms, map_a, map_b


class TestLiveOnlyKernels:
    @given(wide_regex_ast(), wide_regex_ast())
    @settings(max_examples=100, deadline=None)
    def test_determinise_matches_untrimmed_construction(self, left, right):
        from repro.rlang.ops import equivalent

        for nfa in _glued_nfas(left, right):
            dfa = determinise(nfa)
            atoms, delta, accepting = _oracle_determinise(nfa)
            oracle = DFA(atoms=atoms, delta=delta, accepting=accepting)
            assert dfa.atoms == oracle.atoms
            assert dfa.n_states <= oracle.n_states
            assert dfa.shortest_accepted() == oracle.shortest_accepted()
            assert dfa.enumerate() == oracle.enumerate()
            assert equivalent(dfa, oracle)

    @given(regex_pair(), strings(max_len=4))
    @settings(max_examples=150, deadline=None)
    def test_concat_of_complement_brute_force(self, pair, text):
        # a complement's "other" column is live, so the label gluing
        # gives it decides the language
        a, b = ~pair[0], pair[1]
        expected = any(a.matches(text[:cut]) and b.matches(text[cut:])
                       for cut in range(len(text) + 1))
        assert (a + b).matches(text) == expected

    @given(wide_regex_ast(), wide_regex_ast())
    @settings(max_examples=150, deadline=None)
    def test_align_matches_partition_and_atom_index(self, left, right):
        from repro.rlang.ops import _align

        a, b = Regex.from_ast(left).dfa, Regex.from_ast(right).dfa
        assert _align(a, b) == _oracle_align(a, b)

    @given(st.lists(charsets(), max_size=5), st.lists(charsets(), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_align_matches_partition_on_raw_atoms(self, left, right):
        from repro.rlang.ops import _align

        a = DFA(atoms=partition(left), delta=[], accepting=set())
        b = DFA(atoms=partition(right), delta=[], accepting=set())
        assert _align(a, b) == _oracle_align(a, b)

    @given(st.one_of(st.sampled_from(_EDGES),
                     st.integers(min_value=0, max_value=MAX_CODEPOINT)),
           st.integers(min_value=0, max_value=MAX_CODEPOINT))
    @settings(max_examples=200, deadline=None)
    def test_interval_is_normal(self, lo, width):
        hi = min(MAX_CODEPOINT, lo + width)
        made = CharSet.interval(lo, hi)
        assert made == CharSet([(lo, hi)])
        assert made.intervals == CharSet([(lo, hi)]).intervals
        assert hash(made) == hash(CharSet([(lo, hi)]))
