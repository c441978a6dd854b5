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

Layers (:class:`ShardedStore`, which the VC template store of
:mod:`repro.encode.templates` shares):

* an in-memory LRU of live values (cheap, per-process);
* an optional on-disk layer under a cache directory, **sharded by key
  prefix** (``<dir>/<prefix>/<key>.json``, 256 two-hex-digit shards), each
  entry carrying its owner's format tag so stale caches from older
  encodings are rejected rather than trusted.

The disk layer is built to be *shared*: N processes — parallel checker
runs, N server workers, even N machines over a shared filesystem — can
read and write one cache directory concurrently.

* Writes land via temp-file + ``os.replace`` (never a torn file on a clean
  filesystem) while holding the target shard's **advisory file lock**
  (``<shard>/.lock``, ``fcntl.flock``), so two writers of the same key
  serialize instead of interleaving.
* Reads are lock-free: the atomic rename means a reader sees the old
  entry, the new entry, or a miss — never a half-written file.
* Every payload is ``{tag, checksum, entry}`` with a sha256 checksum of
  its entry; a file that fails to parse, verify or decode — bit rot, a
  writer on a filesystem without atomic rename — is **quarantined**
  (renamed to ``<key>.json.corrupt`` inside its shard, under the shard
  lock) so it is inspected once, not re-parsed on every lookup.  A
  stale-but-wellformed format tag is a plain miss, not corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Mapping, Sequence

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
    "model_from_canonical", "QueryCache", "ShardedStore", "shard_prefix",
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


# --------------------------------------------------------------- store


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
    another format tag), or ``"bad"`` (damaged / checksum mismatch)."""
    if not isinstance(payload, dict):
        return "bad"
    tag = payload.get("tag")
    entry = payload.get("entry")
    if tag != format_tag:
        # A wellformed payload from another format generation is stale,
        # not corrupt — leave it for the generation that understands it.
        return "stale" if isinstance(tag, str) else "bad"
    if (not isinstance(entry, dict)
            or payload.get("checksum") != _entry_checksum(entry)):
        return "bad"
    return "ok"


class ShardedStore:
    """Two-layer keyed store: a memory LRU of live values over an
    optional sharded disk directory (layout and protocol in the module
    docs).

    An owner supplies its ``format_tag`` and overrides :meth:`_to_json`
    and :meth:`_from_json` — how one value becomes a JSON object and
    back.  A memory hit returns the live value and never decodes; a disk
    hit decodes once and is remembered.  A decoder that raises marks the
    entry damaged, so it is quarantined like a torn file.

    Instances are thread-safe: the LRU and the stats counters are guarded
    by a lock, and disk writes serialize per shard via advisory locks.
    """

    def __init__(self, maxsize: int,
                 disk_dir: str | os.PathLike | None,
                 format_tag: str) -> None:
        self.maxsize = maxsize
        self.disk_dir = os.fspath(disk_dir) if disk_dir is not None else None
        self.format_tag = format_tag
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._mu = threading.Lock()
        self.stats = {"hits": 0, "misses": 0, "disk_hits": 0, "stores": 0,
                      "quarantined": 0}

    def __len__(self) -> int:
        return len(self._memory)

    def _to_json(self, value: Any) -> dict:
        raise NotImplementedError

    def _from_json(self, entry: dict) -> Any:
        raise NotImplementedError

    # -- both layers --------------------------------------------------

    def _get(self, key: str) -> Any | None:
        with self._mu:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self.stats["hits"] += 1
                return value
        value = self._disk_lookup(key)
        with self._mu:
            if value is not None:
                self.stats["hits"] += 1
                self.stats["disk_hits"] += 1
                self._remember(key, value)
                return value
            self.stats["misses"] += 1
            return None

    def _put(self, key: str, value: Any) -> None:
        with self._mu:
            self.stats["stores"] += 1
            self._remember(key, value)
        if self.disk_dir is not None:
            self._disk_store(key, self._to_json(value))

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
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

    def _read(self, path: str) -> tuple[str, Any]:
        """``(state, value)`` of one entry file, with ``state`` one of
        ``"ok"``, ``"missing"``, ``"stale"`` or ``"bad"``; the value is
        decoded only when the state is ``"ok"``."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return "missing", None
        except (OSError, ValueError):
            return "bad", None  # unreadable or torn JSON: damaged
        state = _verify_payload(payload, self.format_tag)
        if state != "ok":
            return state, None
        try:
            return "ok", self._from_json(payload["entry"])
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError):
            return "bad", None

    def _disk_lookup(self, key: str) -> Any | None:
        if self.disk_dir is None:
            return None
        state, value = self._read(self.entry_path(key))
        if state == "bad":
            self._quarantine(key)
        return value

    def _quarantine(self, key: str) -> None:
        """Rename a damaged entry aside (``<key>.json.corrupt`` inside its
        shard) so it is inspected once, not re-parsed per lookup.  Holds
        the shard lock: a concurrent writer replacing the entry with a
        fresh valid one wins the rename race cleanly."""
        path = self.entry_path(key)
        with _flock(os.path.join(self.shard_dir(key), ".lock")):
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass
        with self._mu:
            self.stats["quarantined"] += 1

    def _disk_store(self, key: str, entry: dict) -> None:
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
        except OSError:  # the store is best-effort; never fail the caller
            pass

    # -- operator views -----------------------------------------------

    def _shard_dirs(self) -> list[str]:
        root = self.disk_dir
        try:
            names = os.listdir(root) if root is not None else []
        except OSError:
            return []
        return sorted(
            os.path.join(root, n) for n in names
            if len(n) == 2 and os.path.isdir(os.path.join(root, n)))

    def _files(self):
        """``(path, name)`` of every file in every shard."""
        for shard in self._shard_dirs():
            try:
                names = sorted(os.listdir(shard))
            except OSError:  # pragma: no cover - shard vanished mid-walk
                continue
            for name in names:
                yield os.path.join(shard, name), name

    def inventory(self) -> dict:
        """Cheap summary of the disk layer: shard, entry and quarantined
        file counts and their total bytes (no payload is read)."""
        entries = corrupt = size = 0
        for path, name in self._files():
            if name.endswith(".json"):
                entries += 1
            elif name.endswith(".corrupt"):
                corrupt += 1
            else:
                continue
            try:
                size += os.path.getsize(path)
            except OSError:  # pragma: no cover
                pass
        return {"dir": self.disk_dir, "shards": len(self._shard_dirs()),
                "entries": entries, "corrupt": corrupt, "bytes": size}

    def audit(self) -> dict:
        """Read and classify every entry exactly as a lookup would, but
        quarantine nothing (the audit observes, the hot path acts): the
        proof that concurrent writers left no damaged entry behind."""
        counts = {"ok": 0, "stale": 0, "bad": 0}
        for path, name in self._files():
            state = self._read(path)[0] if name.endswith(".json") else None
            if state in counts:  # a file gone mid-walk is not counted
                counts[state] += 1
        return {"dir": self.disk_dir, **counts}


class QueryCache(ShardedStore):
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
    """

    def __init__(self, maxsize: int = 4096,
                 disk_dir: str | os.PathLike | None = None,
                 format_tag: str = FORMAT_TAG) -> None:
        super().__init__(maxsize, disk_dir, format_tag)

    # ``lookup``/``store`` are this class's own methods, apart from the
    # template store's, so a tracer wrapping them counts cache traffic only.

    def lookup(self, key: str) -> dict | None:
        """The stored entry for ``key`` or None.

        An entry is ``{"verdict": str, "model": canonical-model | None,
        "stats": {...}}``.
        """
        return self._get(key)

    def store(self, key: str, entry: dict) -> None:
        self._put(key, entry)

    def _to_json(self, entry: dict) -> dict:
        return entry

    def _from_json(self, entry: dict) -> dict:
        if "verdict" not in entry:
            raise ValueError("entry without a verdict")
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
