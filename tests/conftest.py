import json
from pathlib import Path
from typing import NamedTuple

import pytest

CORPUS_DIR = Path(__file__).parent / "corpus"
SUITE_DIR = Path(__file__).parent / "data" / "test_suite"


class Fixture:
    def __init__(self, path: Path):
        self.name = path.name
        self.path = path
        self.schema_json = json.loads((path / "schema.json").read_text())
        self.valid = [
            json.loads(p.read_text()) for p in sorted((path / "valid").glob("*.json"))
        ]
        self.invalid = [
            json.loads(p.read_text()) for p in sorted((path / "invalid").glob("*.json"))
        ]

    @property
    def adversarial(self) -> bool:
        return self.name.startswith("adv_")

    def __repr__(self):
        return f"Fixture({self.name})"


def load_corpus() -> list[Fixture]:
    return [Fixture(p) for p in sorted(CORPUS_DIR.iterdir()) if p.is_dir()]


def load_suite() -> list[tuple[str, dict]]:
    """(file stem, group) pairs in the official suite format."""
    out = []
    for path in sorted(SUITE_DIR.glob("*.json")):
        for group in json.loads(path.read_text()):
            out.append((path.stem, group))
    return out


def small_universe(doc):
    """The instances of ``doc``'s universe with at most two members:
    objects of up to two fields and arrays of up to two items, in the
    universe's order."""
    from uneval.instances import enumerate_instances

    for x in enumerate_instances(doc):
        if not isinstance(x, (dict, list)) or len(x) <= 2:
            yield x


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


class Rewrites(NamedTuple):
    #: the rewrites of the non-adversarial fixtures, in name order
    corpus: list
    #: n -> the rewrites of sn(n) and san(n), for n = 2..7
    family: dict[int, tuple]


@pytest.fixture(scope="session")
def rewrites(corpus):
    """Rewrites made once for the tests that check properties of outputs."""
    # imported here, so that loading this file needs no package on the path
    from uneval.eliminate import elim_document
    from uneval.families import gen_family_san, gen_family_sn
    from uneval.schema import parse_schema

    return Rewrites(
        [elim_document(parse_schema(f.schema_json)) for f in corpus if not f.adversarial],
        {
            n: (elim_document(gen_family_sn(n)), elim_document(gen_family_san(n)))
            for n in range(2, 8)
        },
    )
