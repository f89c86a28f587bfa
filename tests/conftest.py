import random

import pytest
from hypothesis import Phase, settings

import cscwalls as cw
from cscwalls.antitorus import AntiTorusQuery, screen_anti_torus

# No per-example deadline (a loaded host slows examples unevenly) and the same
# examples on every run.
settings.register_profile("cscwalls", deadline=None, derandomize=True)
settings.load_profile("cscwalls")
# tests/mutants.py needs a failing example, not the least one: the same
# examples, without shrinking or explaining a failure.
settings.register_profile(
    "mutants",
    parent=settings.get_profile("cscwalls"),
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)

TORUS_TEXT = """\
hedges: a
vedges: x
square: a x a x
"""

KLEIN_TEXT = """\
hedges: a
vedges: x
square: a x a -x
"""

# Two-vertex cover of the torus: a valid multi-vertex CSC.
TWO_VERTEX_TEXT = """\
vertex: P Q
hedges: a=P:Q b=Q:P
vedges: x=P:P y=Q:Q
square: a y a x
square: b x b y
"""


@pytest.fixture(scope="session")
def torus():
    return cw.parse_complex(TORUS_TEXT)


@pytest.fixture(scope="session")
def klein():
    return cw.parse_complex(KLEIN_TEXT)


@pytest.fixture(scope="session")
def two_vertex():
    return cw.parse_complex(TWO_VERTEX_TEXT)


@pytest.fixture(scope="session")
def census22():
    return tuple(cw.enumerate_csc(2, 2))


@pytest.fixture(scope="session")
def census13():
    return tuple(cw.enumerate_csc(1, 3))


@pytest.fixture(scope="session")
def census31():
    return tuple(cw.enumerate_csc(3, 1))


@pytest.fixture(scope="session")
def census23():
    return tuple(cw.enumerate_csc(2, 3))


@pytest.fixture(scope="session")
def screened_pairs(census22, census13, census31):
    """Every screened pair with words of length <= 2 over the 2+2, 1+3 and
    3+1 census complexes (336 queries)."""
    return tuple(
        q for p in census22 + census13 + census31 for _, _, q in screen_anti_torus(p, max_len=2)
    )


@pytest.fixture(scope="session")
def shipped():
    """The packaged 2+2 complex with its screened aperiodic pair."""
    from importlib.resources import files

    p = cw.parse_complex(files("cscwalls.data").joinpath("aperiodic22.sqc").read_text())
    hw = cw.PeriodicWord(cw.parse_word(p, "a"))
    vw = cw.PeriodicWord(cw.parse_word(p, "x"))
    return AntiTorusQuery(p, hw, vw)


@pytest.fixture(scope="session")
def torus_query(torus):
    return AntiTorusQuery(
        torus,
        cw.PeriodicWord(cw.parse_word(torus, "a")),
        cw.PeriodicWord(cw.parse_word(torus, "x")),
    )


def random_reduced_word(presentation, klass, length, rng):
    """Uniform-ish random reduced word of exactly the given length."""
    pool = presentation.hedges if klass == cw.HORIZONTAL else presentation.vedges
    germs = list(range(2 * len(pool)))
    out = []
    for _ in range(length):
        options = [g for g in germs if not out or g != out[-1] ^ 1]
        out.append(rng.choice(options))
    letters = tuple(presentation.germ_edge(klass, g) for g in out)
    return cw.Word(letters, klass)


@pytest.fixture
def rng():
    return random.Random(0xC5C)
