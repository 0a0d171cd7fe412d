"""Netlist (de)serialization.

Large netlists (the n = 4096 sorters run to hundreds of thousands of
elements) take seconds to construct; ``to_json``/``from_json`` let users
cache them on disk.  The format is a plain JSON object — stable, diffable,
and independent of Python pickling.

:func:`load` additionally memoizes by ``(path, mtime, size)`` and hands
back the *same* :class:`Netlist` object while it stays alive, so the
JSON disk cache composes with the weak-keyed compiled-plan cache in
:mod:`repro.circuits.engine`: a netlist re-loaded between benchmark
sweeps keeps its already-compiled execution plan.

A ``(mtime_ns, size)`` match is *necessary but not sufficient* for
freshness: an atomic replace (``os.replace`` of a same-length file with
a forged or coarse-granularity mtime) can leave the key identical while
the bytes differ.  Cache entries therefore also record the inode and a
content hash; when the cheap key matches but the inode changed, the file
content is re-hashed to decide between reuse and reload.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from typing import Dict, Tuple, Union

from .elements import Element
from .netlist import Block, Netlist

FORMAT_VERSION = 1


def content_hash(data: Union[str, bytes]) -> str:
    """sha256 hex digest of serialized netlist bytes.

    The single content-identity primitive shared by :func:`load`'s
    staleness check and the JIT disk-cache key
    (:func:`repro.circuits.jit.get_jit_plan`): two netlists with equal
    hashes are byte-identical under :func:`to_json`.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def netlist_key(netlist: Netlist) -> str:
    """Content hash of a live netlist (its canonical JSON form).

    Structure-only: two :class:`Netlist` objects that serialize
    identically share a key, which is exactly what lets JIT-compiled
    kernels persist across processes and :mod:`repro.parallel` workers.
    Block records are left out: they do not change what a netlist
    computes.
    """
    return content_hash(to_json(netlist, blocks=False))

#: (realpath, mtime_ns, size) -> (weakref to the loaded netlist, inode,
#: sha256 of the file bytes).  Weak so the cache never extends a
#: netlist's lifetime (mirroring the engine's plan cache); stale file
#: keys are pruned on miss.
_LOAD_CACHE: Dict[
    Tuple[str, int, int], Tuple["weakref.ref[Netlist]", int, str]
] = {}


def to_json(netlist: Netlist, blocks: bool = True) -> str:
    """Serialize a netlist to a JSON string (without its block records
    when ``blocks`` is false)."""
    payload = {
        "format": FORMAT_VERSION,
        "name": netlist.name,
        "n_wires": netlist.n_wires,
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
        "constants": {str(w): v for w, v in netlist.constants.items()},
        # omitted when empty so pre-existing golden files stay byte-stable
        **(
            {"control_wires": sorted(netlist.control_wires)}
            if netlist.control_wires
            else {}
        ),
        "elements": [
            {
                "kind": e.kind,
                "ins": list(e.ins),
                "outs": list(e.outs),
                **({"params": [list(p) for p in e.params]} if e.params else {}),
            }
            for e in netlist.elements
        ],
        # omitted when empty, like control_wires
        **(
            {"blocks": [
                [b.kind, b.size, list(b.inputs), list(b.outputs),
                 b.start, b.stop]
                for b in netlist.blocks
            ]}
            if blocks and netlist.blocks
            else {}
        ),
    }
    return json.dumps(payload)


def from_json(text: Union[str, bytes]) -> Netlist:
    """Reconstruct a netlist from :func:`to_json` output (re-validated)."""
    payload = json.loads(text)
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported netlist format {payload.get('format')!r}"
        )
    elements = [
        Element(
            e["kind"],
            tuple(e["ins"]),
            tuple(e["outs"]),
            tuple(tuple(p) for p in e["params"]) if "params" in e else None,
        )
        for e in payload["elements"]
    ]
    return Netlist(
        n_wires=payload["n_wires"],
        elements=elements,
        inputs=payload["inputs"],
        outputs=payload["outputs"],
        constants={int(w): v for w, v in payload["constants"].items()},
        name=payload.get("name", "netlist"),
        control_wires=payload.get("control_wires", ()),
        blocks=[
            Block(kind, size, tuple(ins), tuple(outs), start, stop)
            for kind, size, ins, outs, start, stop in payload.get("blocks", ())
        ],
    )


def save(netlist: Netlist, path) -> None:
    """Write a netlist to ``path`` as JSON."""
    with open(path, "w") as fh:
        fh.write(to_json(netlist))


def load(path, cache: bool = True) -> Netlist:
    """Read a netlist previously written by :func:`save`.

    With ``cache=True`` (default), repeated loads of an unmodified file
    return the identical ``Netlist`` object while it is still alive
    elsewhere, so its compiled execution plan is reused.  Pass
    ``cache=False`` to force a fresh object (e.g. to mutate it).

    Freshness is keyed on ``(realpath, mtime_ns, size)`` with an inode +
    content-hash fallback: if the key matches but the inode differs (the
    signature of an atomic ``os.replace`` with a same-length file and a
    colliding mtime), the bytes are hashed and the cached object is only
    reused when the content is genuinely identical.
    """
    data = None
    if cache:
        try:
            st = os.stat(path)
            key = (os.path.realpath(path), st.st_mtime_ns, st.st_size)
        except OSError:
            key = None
        if key is not None:
            entry = _LOAD_CACHE.get(key)
            if entry is not None:
                ref, ino, digest = entry
                hit = ref()
                if hit is not None:
                    if st.st_ino == ino:
                        return hit
                    # Same (mtime_ns, size) but a different inode: the
                    # file was atomically replaced.  Fall back to content.
                    with open(path, "rb") as fh:
                        data = fh.read()
                    if content_hash(data) == digest:
                        return hit
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    net = from_json(data)
    if cache and key is not None:
        _LOAD_CACHE[key] = (
            weakref.ref(net),
            st.st_ino,
            content_hash(data),
        )
        if len(_LOAD_CACHE) > 256:  # prune dead refs opportunistically
            for k in [k for k, e in _LOAD_CACHE.items() if e[0]() is None]:
                del _LOAD_CACHE[k]
    return net
