"""Cross-configuration VC templates: symexec once, specialize per cell.

The paper's two-thread abstraction (PAPER.md §IV) makes the expensive
front-end work — symbolic execution of the kernel body, conditional-
assignment extraction, and race-pair enumeration — a function of the
*kernel* and the *check kind* alone: the launch geometry (``bdim``/
``gdim``), the scalar parameters, and the configuration-suite assumptions
all enter the verification conditions as plain assertions appended
afterwards.  This module caches that front-end product, the **VC
template**, so a width ladder (w8/w16/w32) or a `configs.py` sweep pays
symexec once per (kernel, check kind, width) instead of once per cell,
and a long-lived ``repro.serve`` deployment pays it once per kernel
across requests.

Soundness of reuse is an interning argument, not an approximation
argument: every checker runs inside :class:`~repro.smt.terms.fresh_scope`,
which restarts the fresh-name counter, so re-running symexec on the same
kernel mints byte-identical variable names and therefore — terms being
hash-consed — *the very same term objects* the template stored.  A
template hit returns exactly what a miss would have computed; verdicts
are bit-identical by construction, and the differential CI job
(``PUGPARA_TEMPLATES=0`` vs ``=1``) pins that.

Width cannot be held symbolic — it is baked into every bit-vector sort —
so the template key includes it; what the template *does* share is
everything downstream of the width choice: all `configs.py` cells, all
concretizations, all assumption suites, and repeat requests.

The store is the query cache's two-layer
:class:`~repro.smt.qcache.ShardedStore` with its own format tag: a memory
LRU of live templates over an optional sharded disk tree
(``<PUGPARA_CACHE_DIR>/templates``) that server workers share.  Disk
round-trips go through the qcache term codec, whose decoder rebuilds via
the raw interning constructor — a reloaded template is re-interned into
the live DAG and behaves exactly like a fresh one.

``PUGPARA_TEMPLATES=0`` disables the store process-wide.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..lang.pretty import pretty_kernel
from ..lang.typecheck import KernelInfo
from ..smt.qcache import ShardedStore, decode_terms, encode_terms
from ..smt.terms import Term

__all__ = [
    "TEMPLATE_FORMAT_TAG", "VCTemplate", "TemplateStore", "kernel_digest",
    "template_key", "template_dir", "templates_enabled",
    "default_template_store",
    "set_default_template_store", "resolve_template_store",
]

#: Bumped whenever the template payload shape or the term codec changes;
#: entries with another tag are treated as misses and rewritten.
#: v2: the tag moved from the entry into the shared store's envelope.
TEMPLATE_FORMAT_TAG = "pugpara-vctpl-v2"


def templates_enabled() -> bool:
    """The ``PUGPARA_TEMPLATES`` kill switch (house style: 0/false/off/no)."""
    raw = os.environ.get("PUGPARA_TEMPLATES")
    if raw is None:
        return True
    return raw.strip().lower() not in ("0", "false", "off", "no")


def kernel_digest(info: KernelInfo) -> str:
    """A stable digest of one kernel's full source-level content.

    Keys off the pretty-printed AST (declarations, body, spec and
    postcondition lines all included), so textual noise — comments,
    whitespace — does not split templates, while any semantic edit does.
    """
    import hashlib
    return hashlib.sha256(pretty_kernel(info.kernel).encode()).hexdigest()


def template_key(info: KernelInfo, check: str, width: int) -> str:
    """The store key: kernel digest x check kind x machine word width."""
    return f"{kernel_digest(info)}-{check}-w{width}"


@dataclass
class VCTemplate:
    """One check's front-end product, ready to specialize.

    ``base`` is the assertion prefix shared by every VC of the check
    (geometry positivity plus the kernel's own assumptions); ``queries``
    is the ordered list of per-VC records — for the race checker,
    ``(kind, line_a, line_b, array, terms)`` tuples whose ``terms`` are
    conjoined after the base and the per-cell assumptions.  Order is part
    of the contract: checkers consume results in generation order, so the
    template must replay the exact sequence a fresh run would generate.

    ``unsupported`` caches a front-end rejection (:class:`EncodingError`
    text): re-checking an unsupported kernel then skips symexec too and
    reproduces the same UNSUPPORTED reason verbatim.
    """
    check: str
    width: int
    base: list[Term] = field(default_factory=list)
    queries: list[tuple[str, int, int, str, list[Term]]] = \
        field(default_factory=list)
    unsupported: str | None = None

    def to_blob(self) -> dict:
        """Serialize for the disk layer (one flat term table, split by
        per-root counts on the way back in)."""
        roots: list[Term] = list(self.base)
        qmeta: list[list[Any]] = []
        for kind, la, lb, array, terms in self.queries:
            qmeta.append([kind, la, lb, array, len(terms)])
            roots.extend(terms)
        return {
            "check": self.check,
            "width": self.width,
            "n_base": len(self.base),
            "queries": qmeta,
            "terms": encode_terms(roots),
            "unsupported": self.unsupported,
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "VCTemplate":
        terms = decode_terms(blob["terms"])
        n_base = blob["n_base"]
        base, rest = terms[:n_base], terms[n_base:]
        queries: list[tuple[str, int, int, str, list[Term]]] = []
        pos = 0
        for kind, la, lb, array, n in blob["queries"]:
            queries.append((kind, la, lb, array, rest[pos:pos + n]))
            pos += n
        return cls(check=blob["check"], width=blob["width"], base=base,
                   queries=queries, unsupported=blob.get("unsupported"))


class TemplateStore(ShardedStore):
    """Two-layer VC template cache (memory LRU + optional sharded disk).

    The memory layer holds live :class:`VCTemplate` objects — their terms
    are interned, so a hit hands back the same nodes the encoder would
    rebuild.  The disk layer (enabled by ``disk_dir``) shares templates
    between server workers through the query cache's shard protocol.
    """

    def __init__(self, disk_dir: str | os.PathLike | None = None,
                 maxsize: int = 256) -> None:
        super().__init__(maxsize, disk_dir, TEMPLATE_FORMAT_TAG)

    # Own methods, never the query cache's: a tracer wrapping
    # ``QueryCache.lookup`` must not count template traffic.

    def lookup(self, key: str) -> VCTemplate | None:
        return self._get(key)

    def store(self, key: str, template: VCTemplate) -> None:
        self._put(key, template)

    def _to_json(self, template: VCTemplate) -> dict:
        return template.to_blob()

    def _from_json(self, blob: dict) -> VCTemplate:
        return VCTemplate.from_blob(blob)


def template_dir(cache_dir: str | os.PathLike) -> str:
    """The template tree inside a cache directory.  Its name is not two
    hex characters, so it never reads as one of the query cache's
    shards."""
    return os.path.join(cache_dir, "templates")


_default_store: TemplateStore | None = None


def default_template_store() -> TemplateStore:
    """The process-wide store (created on first use, memory-only unless
    ``PUGPARA_CACHE_DIR`` names a cache directory)."""
    global _default_store
    if _default_store is None:
        cache_dir = os.environ.get("PUGPARA_CACHE_DIR")
        _default_store = TemplateStore(
            disk_dir=template_dir(cache_dir) if cache_dir else None)
    return _default_store


def set_default_template_store(store: TemplateStore | None) -> None:
    """Install (or reset, with ``None``) the process default; the server
    points it at its cache directory's template tree."""
    global _default_store
    _default_store = store


def resolve_template_store() -> TemplateStore | None:
    """The store checkers should consult: the default store, or ``None``
    when the ``PUGPARA_TEMPLATES`` kill switch is thrown."""
    if not templates_enabled():
        return None
    return default_template_store()
