"""Digests of the rewrites and ENF branch counts of one checkout.

Run from anywhere::

    python3 tools/rewrite_digest.py [CHECKOUT]

``CHECKOUT`` defaults to the repository holding this script; its
``src/uneval`` is imported and its ``tests/corpus`` read.  The inputs are
sn n = 2..10, then san n = 2..10, then the non-adversarial corpus fixtures
(``adv_*`` left out) in name order, each rewritten by
``elim_document_with_stats``.  Three lines are printed:

* ``rewrite``: the sha256 over the concatenated UTF-8 texts
  ``serialize_json(serialize_schema(out))``, the digest that CHANGES
  entries cite;
* ``enf_stats``: the sha256 over ``serialize_json`` of the list of the
  ENF branch counts (the stats dicts), in the same order;
* ``pretty``: the sha256 over the concatenated pretty texts
  ``dump_json(serialize_schema(...))`` of each input and then its rewrite.
  ``serialize_json`` sorts keys, so keyword order shows only here.

Two checkouts rewrite byte-identically, with the same branch counts,
exactly when the first two lines agree; the third also compares the
pretty text, keyword order included, of the inputs and the rewrites.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def digests(checkout: Path) -> tuple[str, str, str]:
    sys.path.insert(0, str(checkout / "src"))
    import uneval

    docs = [gen(n) for gen in (uneval.gen_family_sn, uneval.gen_family_san) for n in range(2, 11)]
    for path in sorted((checkout / "tests" / "corpus").iterdir()):
        if path.is_dir() and not path.name.startswith("adv_"):
            docs.append(uneval.parse_schema(uneval.parse_json((path / "schema.json").read_bytes())))
    rewrites, pretty, stats = hashlib.sha256(), hashlib.sha256(), []
    for doc in docs:
        out, counts = uneval.elim_document_with_stats(doc)
        rewrites.update(uneval.serialize_json(uneval.serialize_schema(out)).encode())
        for d in (doc, out):
            pretty.update(uneval.jsonvalue.dump_json(uneval.serialize_schema(d)).encode())
        stats.append(counts)
    enf_stats = hashlib.sha256(uneval.serialize_json(stats).encode()).hexdigest()
    return rewrites.hexdigest(), enf_stats, pretty.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    rewrite, enf_stats, pretty = digests(checkout.resolve())
    print(f"rewrite   {rewrite}")
    print(f"enf_stats {enf_stats}")
    print(f"pretty    {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
