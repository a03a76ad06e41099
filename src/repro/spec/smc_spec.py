"""Pure-functional SMC specification (paper section 5.2).

Each non-executing monitor call is specified as a pure function that,
given an input PageDB and call parameters, computes an error/success code
and a resulting PageDB.  The implementation is checked against these
functions by the refinement harness; equality of the resulting abstract
states *is* the refinement relation.

Measurement in the spec is the unbounded sequence of measured words; the
implementation's incremental SHA-256 chaining state refines it (checked
by re-hashing the abstract sequence, see ``repro.verification``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.arm.pagetable import L1_ENTRIES
from repro.monitor.errors import KomErr
from repro.monitor.layout import AddrspaceState, Mapping, mapping_word_valid
from repro.monitor.measurement import MEASURE_INITTHREAD, MEASURE_MAPSECURE
from repro.spec.pagedb import (
    AbsAddrspace,
    AbsData,
    AbsFree,
    AbsL1,
    AbsL2,
    AbsMappingEntry,
    AbsPageDb,
    AbsSpare,
    AbsThread,
)

SpecResult = Tuple[KomErr, AbsPageDb]

#: Words per measurement record (one SHA-256 block), as in the monitor.
_RECORD_WORDS = 16


def _record(tag: int, arg1: int, arg2: int) -> Tuple[int, ...]:
    return tuple([tag, arg1, arg2] + [0] * (_RECORD_WORDS - 3))


def spec_get_physpages(db: AbsPageDb) -> Tuple[KomErr, int, AbsPageDb]:
    return (KomErr.SUCCESS, db.npages, db)


def spec_init_addrspace(db: AbsPageDb, as_page: int, l1pt_page: int) -> SpecResult:
    if not db.valid_pageno(as_page) or not db.valid_pageno(l1pt_page):
        return (KomErr.INVALID_PAGENO, db)
    if as_page == l1pt_page:
        return (KomErr.INVALID_PAGENO, db)
    if not db.is_free(as_page) or not db.is_free(l1pt_page):
        return (KomErr.PAGEINUSE, db)
    new = db.updated_many(
        {
            as_page: AbsAddrspace(
                state=AddrspaceState.INIT, refcount=1, l1pt=l1pt_page
            ),
            l1pt_page: AbsL1(addrspace=as_page),
        }
    )
    return (KomErr.SUCCESS, new)


def _addrspace_err(db: AbsPageDb, as_page: int) -> Optional[KomErr]:
    if not db.valid_pageno(as_page):
        return KomErr.INVALID_PAGENO
    if not isinstance(db[as_page], AbsAddrspace):
        return KomErr.INVALID_ADDRSPACE
    return None


def _init_addrspace_err(db: AbsPageDb, as_page: int) -> Optional[KomErr]:
    err = _addrspace_err(db, as_page)
    if err is not None:
        return err
    state = db[as_page].state
    if state is AddrspaceState.FINAL:
        return KomErr.ALREADY_FINAL
    if state is AddrspaceState.STOPPED:
        return KomErr.STOPPED
    return None


def _bump(entry: AbsAddrspace, delta: int = 1, **changes) -> AbsAddrspace:
    from dataclasses import replace

    return replace(entry, refcount=entry.refcount + delta, **changes)


def spec_init_thread(
    db: AbsPageDb, as_page: int, thread_page: int, entry: int
) -> SpecResult:
    err = _init_addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    if not db.valid_pageno(thread_page):
        return (KomErr.INVALID_PAGENO, db)
    if not db.is_free(thread_page):
        return (KomErr.PAGEINUSE, db)
    aspace = db[as_page]
    new = db.updated_many(
        {
            thread_page: AbsThread(addrspace=as_page, entrypoint=entry),
            as_page: _bump(
                aspace,
                measured=aspace.measured + _record(MEASURE_INITTHREAD, entry, 0),
            ),
        }
    )
    return (KomErr.SUCCESS, new)


def spec_init_l2ptable(
    db: AbsPageDb, as_page: int, l2pt_page: int, l1index: int
) -> SpecResult:
    err = _init_addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    if not db.valid_pageno(l2pt_page):
        return (KomErr.INVALID_PAGENO, db)
    if not db.is_free(l2pt_page):
        return (KomErr.PAGEINUSE, db)
    if not 0 <= l1index < L1_ENTRIES:
        return (KomErr.INVALID_MAPPING, db)
    aspace = db[as_page]
    l1 = db[aspace.l1pt]
    if l1.entries[l1index] is not None:
        return (KomErr.ADDRINUSE, db)
    entries = list(l1.entries)
    entries[l1index] = l2pt_page
    new = db.updated_many(
        {
            l2pt_page: AbsL2(addrspace=as_page),
            aspace.l1pt: AbsL1(addrspace=as_page, entries=tuple(entries)),
            as_page: _bump(aspace),
        }
    )
    return (KomErr.SUCCESS, new)


def spec_alloc_spare(db: AbsPageDb, as_page: int, spare_page: int) -> SpecResult:
    err = _addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    if db[as_page].state is AddrspaceState.STOPPED:
        return (KomErr.STOPPED, db)
    if not db.valid_pageno(spare_page):
        return (KomErr.INVALID_PAGENO, db)
    if not db.is_free(spare_page):
        return (KomErr.PAGEINUSE, db)
    new = db.updated_many(
        {
            spare_page: AbsSpare(addrspace=as_page),
            as_page: _bump(db[as_page]),
        }
    )
    return (KomErr.SUCCESS, new)


def _l2_slot(db: AbsPageDb, as_page: int, mapping: Mapping):
    """Locate the L2 table + slot for a mapping: (err, l2page, l2index)."""
    aspace = db[as_page]
    l1 = db[aspace.l1pt]
    l2page = l1.entries[mapping.l1index]
    if l2page is None:
        return (KomErr.INVALID_MAPPING, None, None)
    return (None, l2page, mapping.l2index)


def spec_map_secure(
    db: AbsPageDb,
    as_page: int,
    data_page: int,
    mapping_word: int,
    contents: Sequence[int],
    insecure_valid: bool,
) -> SpecResult:
    """MapSecure: ``contents`` is the source page's words (or zeros).

    ``insecure_valid`` abstracts the machine-level check that the source
    address is a page-aligned insecure address (the spec has no memory
    map, so validity is a parameter supplied by the extraction layer).
    """
    err = _init_addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    if not db.valid_pageno(data_page):
        return (KomErr.INVALID_PAGENO, db)
    if not db.is_free(data_page):
        return (KomErr.PAGEINUSE, db)
    if not mapping_word_valid(mapping_word):
        return (KomErr.INVALID_MAPPING, db)
    if not insecure_valid:
        return (KomErr.INSECURE_INVALID, db)
    mapping = Mapping.decode(mapping_word)
    err, l2page, l2index = _l2_slot(db, as_page, mapping)
    if err is not None:
        return (err, db)
    l2 = db[l2page]
    if l2.entries[l2index] is not None:
        return (KomErr.ADDRINUSE, db)
    entries = list(l2.entries)
    entries[l2index] = AbsMappingEntry(
        secure_page=data_page,
        insecure_base=None,
        readable=mapping.readable,
        writable=mapping.writable,
        executable=mapping.executable,
    )
    aspace = db[as_page]
    measured = (
        aspace.measured
        + _record(MEASURE_MAPSECURE, mapping_word, 0)
        + tuple(contents)
    )
    new = db.updated_many(
        {
            data_page: AbsData(addrspace=as_page, contents=tuple(contents)),
            l2page: AbsL2(addrspace=as_page, entries=tuple(entries)),
            as_page: _bump(aspace, measured=measured),
        }
    )
    return (KomErr.SUCCESS, new)


def spec_map_insecure(
    db: AbsPageDb,
    as_page: int,
    mapping_word: int,
    target: int,
    insecure_valid: bool,
) -> SpecResult:
    err = _init_addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    if not mapping_word_valid(mapping_word):
        return (KomErr.INVALID_MAPPING, db)
    mapping = Mapping.decode(mapping_word)
    if mapping.executable:
        return (KomErr.INVALID_MAPPING, db)
    if not insecure_valid:
        return (KomErr.INSECURE_INVALID, db)
    err, l2page, l2index = _l2_slot(db, as_page, mapping)
    if err is not None:
        return (err, db)
    l2 = db[l2page]
    if l2.entries[l2index] is not None:
        return (KomErr.ADDRINUSE, db)
    entries = list(l2.entries)
    entries[l2index] = AbsMappingEntry(
        secure_page=None,
        insecure_base=target,
        readable=mapping.readable,
        writable=mapping.writable,
        executable=False,
    )
    new = db.updated(l2page, AbsL2(addrspace=as_page, entries=tuple(entries)))
    return (KomErr.SUCCESS, new)


def spec_finalise(db: AbsPageDb, as_page: int) -> SpecResult:
    err = _init_addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    from dataclasses import replace

    from repro.crypto.sha256 import SHA256

    aspace = db[as_page]
    # A fresh byte-stream hash runs on hashlib, not on the memoised
    # from-scratch chaining path the monitor measures with, so the
    # refinement check compares two independent implementations.
    hasher = SHA256()
    hasher.update(b"".join((w & 0xFFFFFFFF).to_bytes(4, "big") for w in aspace.measured))
    digest = tuple(hasher.digest_words())
    new = db.updated(
        as_page,
        replace(aspace, state=AddrspaceState.FINAL, measurement=digest),
    )
    return (KomErr.SUCCESS, new)


def spec_stop(db: AbsPageDb, as_page: int) -> SpecResult:
    err = _addrspace_err(db, as_page)
    if err is not None:
        return (err, db)
    from dataclasses import replace

    new = db.updated(as_page, replace(db[as_page], state=AddrspaceState.STOPPED))
    return (KomErr.SUCCESS, new)


def spec_remove(db: AbsPageDb, pageno: int) -> SpecResult:
    if not db.valid_pageno(pageno):
        return (KomErr.INVALID_PAGENO, db)
    entry = db[pageno]
    if isinstance(entry, AbsFree):
        return (KomErr.INVALID_PAGENO, db)
    if isinstance(entry, AbsAddrspace):
        if entry.state is not AddrspaceState.STOPPED:
            return (KomErr.NOT_STOPPED, db)
        if entry.refcount != 0:
            return (KomErr.PAGEINUSE, db)
        return (KomErr.SUCCESS, db.updated(pageno, AbsFree()))
    owner = entry.addrspace
    if not isinstance(entry, AbsSpare):
        if db[owner].state is not AddrspaceState.STOPPED:
            return (KomErr.NOT_STOPPED, db)
    changes = {pageno: AbsFree(), owner: _bump(db[owner], delta=-1)}
    # Removing an L2 table or data page from a *stopped* enclave may
    # leave dangling references in sibling tables; a stopped enclave can
    # never execute, so the spec (like the implementation) permits it.
    new = db.updated_many(changes)
    return (KomErr.SUCCESS, new)
