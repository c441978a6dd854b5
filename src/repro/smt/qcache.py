"""Canonical query cache for the SMT pipeline.

A verification run re-asks many structurally identical questions: mutation
suites re-check the unchanged parts of a kernel, bench tables re-run whole
suites, and the race checker's symmetric interval pairs collapse onto the
same formula.  Every one of those queries rebuilds the full
simplify -> array-elim -> bitblast -> CDCL pipeline from scratch, so caching
*verdicts* (plus the satisfying assignment) amortizes the entire pipeline.

The cache key is a **variable-renaming-invariant structural hash** of the
simplified assertion set: a single post-order walk over the hash-consed term
DAG assigns every distinct node a small integer, numbering variables in
de Bruijn style by first encounter instead of by name.  Two queries that
differ only by a consistent renaming of their variables (``s!3.tidx`` vs
``s!41.tidx`` — exactly what repeated checker runs produce) hash to the same
key; queries differing in one constant, one operator, or any bit-width do
not.

Cached models are stored against the *canonical* variable numbering, so a
hit under a renamed query can be translated back into that query's own
variables.

Layers:

* an in-memory LRU (cheap, per-process);
* an optional on-disk layer under a cache directory, **sharded by key
  prefix** (``<dir>/<prefix>/<key>.json``, 256 two-hex-digit shards), each
  entry carrying a format tag so stale caches from older encodings are
  rejected rather than trusted.

The disk layer is built to be *shared*: N processes — parallel checker
runs, N server workers, even N machines over a shared filesystem — can
read and write one cache directory concurrently.

* Writes land via temp-file + ``os.replace`` (never a torn file on a clean
  filesystem) while holding the target shard's **advisory file lock**
  (``<shard>/.lock``, ``fcntl.flock``), so two writers of the same key
  serialize instead of interleaving.
* Reads are lock-free: the atomic rename means a reader sees the old
  entry, the new entry, or a miss — never a half-written file.
* Every payload carries a sha256 checksum of its entry; a file that fails
  to parse or verify — bit rot, a writer on a filesystem without atomic
  rename — is **quarantined** (renamed to ``<key>.json.corrupt`` inside
  its shard, under the shard lock) so it is inspected once, not re-parsed
  on every lookup.  A stale-but-wellformed format tag is a plain miss,
  not corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterable, Mapping, Sequence

from . import faults
from .model import Model
from .sorts import ARRAY, BOOL, BV, ArraySort, BitVecSort, Sort
from .terms import Kind, Term

try:  # POSIX advisory locking; degrade to lockless elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "FORMAT_TAG", "SHARD_COUNT", "canonicalize", "canonical_key",
    "encode_terms", "decode_terms", "model_to_canonical",
    "model_from_canonical", "QueryCache", "shard_prefix",
]

#: Bumped whenever the canonical-key traversal, the term encoding, or the
#: entry layout changes; on-disk entries with a different tag are ignored.
#: v2: payloads carry a per-entry checksum.  (The sharded *directory*
#: layout did not bump the tag — entry payloads are unchanged.)
FORMAT_TAG = "pugpara-qcache-v2"

#: Number of disk shards (two hex digits of the key).
SHARD_COUNT = 256


def shard_prefix(key: str) -> str:
    """The two-hex-digit shard a key lives in.

    Canonical keys are sha256 hex digests, so their first two characters
    are uniformly distributed over the 256 shards.  A key that does not
    look like a hex digest (tests, ad-hoc callers) is hashed first so it
    still lands in a well-formed shard.
    """
    head = key[:2].lower()
    if len(head) == 2 and all(c in "0123456789abcdef" for c in head):
        return head
    return hashlib.sha256(key.encode()).hexdigest()[:2]


def _entry_checksum(entry: Any) -> str:
    """sha256 over the JSON-normalized entry.

    The entry is round-tripped through JSON before hashing so the checksum
    is computed over exactly what a later load will see (int dict keys
    become strings, tuples become lists); both sides then agree on the
    ``sort_keys`` ordering.
    """
    canon = json.loads(json.dumps(entry))
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------- sorts


def _sort_sig(sort: Sort) -> str:
    if sort is BOOL:
        return "b"
    if isinstance(sort, BitVecSort):
        return f"v{sort.width}"
    if isinstance(sort, ArraySort):
        return f"a{sort.index_sort.width}.{sort.elem_sort.width}"
    raise TypeError(f"unsupported sort {sort!r}")  # pragma: no cover


def _sort_from_sig(sig: str) -> Sort:
    if sig == "b":
        return BOOL
    if sig.startswith("v"):
        return BV(int(sig[1:]))
    if sig.startswith("a"):
        iw, ew = sig[1:].split(".")
        return ARRAY(int(iw), int(ew))
    raise ValueError(f"bad sort signature {sig!r}")  # pragma: no cover


# --------------------------------------------------- canonical hashing


def _walk(roots: Sequence[Term]):
    """Post-order over the distinct DAG nodes of ``roots`` (iterative).

    ``seen`` probes by object identity — terms are hash-consed with the
    C-slot ``__hash__``/``__eq__`` — so visiting a shared subterm twice
    costs one pointer comparison, not a structural re-hash; the
    canonical key below is linear in DAG *nodes*, not tree size."""
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        term, expanded = stack.pop()
        if term in seen:
            continue
        if expanded:
            seen.add(term)
            yield term
        else:
            stack.append((term, True))
            for child in reversed(term.args):
                if child not in seen:
                    stack.append((child, False))


def canonicalize(assertions: Sequence[Term]) -> tuple[str, dict[Term, int]]:
    """Canonical key plus the query's variable numbering.

    Returns ``(key, varmap)`` where ``key`` is a hex digest invariant under
    consistent variable renaming, and ``varmap`` maps every variable term of
    the query to its canonical (de Bruijn-style) ordinal — the numbering the
    cache stores models against.
    """
    ids: dict[Term, int] = {}
    varmap: dict[Term, int] = {}
    hasher = hashlib.sha256()
    hasher.update(FORMAT_TAG.encode())
    for term in _walk(assertions):
        nid = len(ids)
        ids[term] = nid
        if term.kind == Kind.VAR:
            payload_sig = f"V{varmap.setdefault(term, len(varmap))}"
        else:
            payload_sig = repr(term.payload)
        children = ",".join(str(ids[a]) for a in term.args)
        hasher.update(
            f"{nid}|{int(term.kind)}|{_sort_sig(term.sort)}|"
            f"{payload_sig}|{children};".encode())
    hasher.update(("roots:" + ",".join(str(ids[t]) for t in assertions))
                  .encode())
    return hasher.hexdigest(), varmap


def canonical_key(assertions: Sequence[Term]) -> str:
    """Just the key (see :func:`canonicalize`)."""
    return canonicalize(assertions)[0]


# --------------------------------------------------- term serialization


def encode_terms(terms: Sequence[Term]) -> dict:
    """Flatten a term DAG into a picklable/JSON-able blob.

    The blob is a post-order node list; each node is
    ``[kind, sort_sig, payload, [child ids]]``.  Sharing is preserved, so
    decoding re-interns to an isomorphic DAG.
    """
    ids: dict[Term, int] = {}
    nodes: list[list] = []
    for term in _walk(terms):
        payload = term.payload
        if isinstance(payload, tuple):  # EXTRACT's (hi, lo)
            payload = list(payload)
        nodes.append([int(term.kind), _sort_sig(term.sort), payload,
                      [ids[a] for a in term.args]])
        ids[term] = len(ids)
    return {"nodes": nodes, "roots": [ids[t] for t in terms]}


def decode_terms(blob: Mapping[str, Any]) -> list[Term]:
    """Rebuild the terms of an :func:`encode_terms` blob (re-interned)."""
    built: list[Term] = []
    for kind, sig, payload, children in blob["nodes"]:
        k = Kind(kind)
        if k == Kind.EXTRACT:
            payload = tuple(payload)
        built.append(Term(k, _sort_from_sig(sig),
                          tuple(built[c] for c in children), payload))
    return [built[r] for r in blob["roots"]]


# ------------------------------------------------- model serialization


def model_to_canonical(model: Model,
                       varmap: Mapping[Term, int]) -> dict:
    """Project a model onto the query's canonical variable numbering.

    Internal solver variables (Ackermann element atoms …) that do not occur
    in the original assertion DAG are dropped — they carry no information a
    renamed query could use.
    """
    scalars: dict[int, int | bool] = {}
    arrays: dict[int, dict[int, int]] = {}
    for var in model.variables():
        if var not in varmap:
            continue
        value = model[var]
        if isinstance(value, dict):
            arrays[varmap[var]] = {int(k): int(v) for k, v in value.items()}
        elif isinstance(value, bool):
            scalars[varmap[var]] = value
        else:
            scalars[varmap[var]] = int(value)  # type: ignore[arg-type]
    return {"scalars": scalars, "arrays": arrays}


def model_from_canonical(data: Mapping[str, Any],
                         varmap: Mapping[Term, int]) -> Model:
    """Rebuild a model for *this* query from a canonical projection."""
    inverse = {ordinal: var for var, ordinal in varmap.items()}
    scalars: dict[Term, object] = {}
    arrays: dict[Term, dict[int, int]] = {}
    for ordinal, value in data.get("scalars", {}).items():
        var = inverse.get(int(ordinal))
        if var is None:
            continue
        if var.sort is BOOL:
            scalars[var] = bool(value)
        else:
            scalars[var] = int(value)
    for ordinal, content in data.get("arrays", {}).items():
        var = inverse.get(int(ordinal))
        if var is None:
            continue
        arrays[var] = {int(k): int(v) for k, v in content.items()}
    return Model(scalars, arrays)


# --------------------------------------------------------------- cache


@contextmanager
def _flock(lock_path: str):
    """Hold an exclusive advisory lock on ``lock_path``.

    Advisory means cooperating writers serialize; a reader that ignores
    the lock still only ever sees atomic renames.  On platforms without
    ``fcntl`` (or a filesystem that refuses locks) this degrades to
    lockless operation — the atomic-rename + checksum + quarantine layers
    below remain the correctness backstop.
    """
    if fcntl is None:
        yield
        return
    fd = None
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError:
        if fd is not None:
            os.close(fd)
            fd = None
    try:
        yield
    finally:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            os.close(fd)


def _verify_payload(payload: Any, format_tag: str) -> str:
    """Classify a parsed disk payload: ``"ok"``, ``"stale"`` (wellformed,
    older format tag), or ``"bad"`` (damaged / checksum mismatch)."""
    if not isinstance(payload, dict):
        return "bad"
    tag = payload.get("tag")
    entry = payload.get("entry")
    checksum = payload.get("checksum")
    if tag != format_tag:
        # A wellformed payload from another format generation is stale,
        # not corrupt — leave it for the generation that understands it.
        return "stale" if isinstance(tag, str) else "bad"
    if (not isinstance(entry, dict) or "verdict" not in entry
            or checksum != _entry_checksum(entry)):
        return "bad"
    return "ok"


class QueryCache:
    """Verdict + model cache keyed by :func:`canonicalize` keys.

    Parameters
    ----------
    maxsize:
        Bound on the in-memory LRU (entries, not bytes).
    disk_dir:
        When given, entries are also persisted as one JSON file per key
        under this directory (sharded by key prefix, see module docs), so
        a fresh process (another mutation run, a warm bench re-run, a
        server worker) starts warm — and N concurrent processes can share
        the directory.  Entries are versioned by ``format_tag``; a
        mismatching tag is treated as a miss.

    Instances are thread-safe: the in-memory LRU and the stats counters
    are guarded by a lock, and disk writes serialize per shard via
    advisory file locks.
    """

    def __init__(self, maxsize: int = 4096,
                 disk_dir: str | os.PathLike | None = None,
                 format_tag: str = FORMAT_TAG) -> None:
        self.maxsize = maxsize
        self.disk_dir = os.fspath(disk_dir) if disk_dir is not None else None
        self.format_tag = format_tag
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self._mu = threading.Lock()
        self.stats = {"hits": 0, "misses": 0, "disk_hits": 0, "stores": 0,
                      "quarantined": 0}

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup/store -------------------------------------------------

    def lookup(self, key: str) -> dict | None:
        """The stored entry for ``key`` or None.

        An entry is ``{"verdict": str, "model": canonical-model | None,
        "stats": {...}}``.
        """
        with self._mu:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats["hits"] += 1
                return entry
        entry = self._disk_lookup(key)
        with self._mu:
            if entry is not None:
                self.stats["hits"] += 1
                self.stats["disk_hits"] += 1
                self._remember(key, entry)
                return entry
            self.stats["misses"] += 1
            return None

    def store(self, key: str, entry: dict) -> None:
        with self._mu:
            self.stats["stores"] += 1
            self._remember(key, entry)
        self._disk_store(key, entry)

    def _remember(self, key: str, entry: dict) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    # -- disk layer ---------------------------------------------------

    def shard_dir(self, key: str) -> str:
        """The shard directory ``key`` lives in."""
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, shard_prefix(key))

    def entry_path(self, key: str) -> str:
        """The on-disk path of ``key``'s entry (whether or not it exists)."""
        return os.path.join(self.shard_dir(key), f"{key}.json")

    def _quarantine(self, key: str) -> None:
        """Rename a damaged cache file aside (``<key>.json.corrupt`` inside
        its shard) so a torn or rotted entry is inspected once, not
        re-parsed per lookup.  Holds the shard lock: a concurrent writer
        replacing the entry with a fresh valid one wins the rename race
        cleanly."""
        path = self.entry_path(key)
        with _flock(os.path.join(self.shard_dir(key), ".lock")):
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass
        with self._mu:
            self.stats["quarantined"] += 1

    def _disk_lookup(self, key: str) -> dict | None:
        if self.disk_dir is None:
            return None
        try:
            with open(self.entry_path(key), encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # Unreadable or torn JSON: damaged, not merely absent.
            self._quarantine(key)
            return None
        state = _verify_payload(payload, self.format_tag)
        if state == "stale":
            return None  # stale format: a plain miss, never trusted
        if state == "bad":
            self._quarantine(key)
            return None
        entry = payload["entry"]
        model = entry.get("model")
        if model is not None:
            # JSON turned the int keys into strings; undo that.
            entry["model"] = {
                "scalars": {int(k): v
                            for k, v in model.get("scalars", {}).items()},
                "arrays": {int(k): {int(i): int(x) for i, x in c.items()}
                           for k, c in model.get("arrays", {}).items()},
            }
        return entry

    def _disk_store(self, key: str, entry: dict) -> None:
        if self.disk_dir is None:
            return
        payload = {"tag": self.format_tag,
                   "checksum": _entry_checksum(entry),
                   "entry": entry}
        data = json.dumps(payload).encode()
        # Fault-injection point: a corrupt_cache plan garbles the bytes the
        # way a torn write would, exercising the quarantine path.
        data = faults.corrupt_bytes(faults.active(), key, data)
        shard = self.shard_dir(key)
        try:
            os.makedirs(shard, exist_ok=True)
            with _flock(os.path.join(shard, ".lock")):
                fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, self.entry_path(key))
        except OSError:  # cache is best-effort; never fail the query
            pass

    def clear(self, *, disk: bool = False) -> None:
        with self._mu:
            self._memory.clear()
        if not (disk and self.disk_dir is not None
                and os.path.isdir(self.disk_dir)):
            return
        roots = [self.disk_dir]
        roots += [os.path.join(self.disk_dir, n)
                  for n in os.listdir(self.disk_dir)
                  if len(n) == 2 and os.path.isdir(
                      os.path.join(self.disk_dir, n))]
        for root in roots:
            try:
                names = os.listdir(root)
            except OSError:  # pragma: no cover
                continue
            for name in names:
                if (name.endswith(".json") or name.endswith(".corrupt")
                        or name == ".lock"):
                    try:
                        os.unlink(os.path.join(root, name))
                    except OSError:
                        pass
        for root in roots[1:]:
            try:
                os.rmdir(root)
            except OSError:
                pass
