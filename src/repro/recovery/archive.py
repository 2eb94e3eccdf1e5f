"""Off-line archive dumps and media recovery.

The paper's storage model (Section 2.1.3): "To reduce the cost of
recovering from disk failures, systems infrequently dump the contents of
non-volatile storage into an off-line archive."  TABS itself skipped this
("we do not consider disk failures in this work") and its Conclusions list
media recovery as needed work; this module supplies it.

An :class:`Archive` holds page images of every attached segment as of the
dump, plus the log position (``archive_lsn``) up to which the dump is
complete.  A page lost to a disk failure (or rotted) is rebuilt from its
archived image, rolled forward over the retained log -- not from the last
checkpoint, whose bound assumes the non-volatile image survived (see
:func:`repro.recovery.driver.page_base`).
Log reclamation respects the archive: records from ``retain_from_lsn`` on
must be retained or the archive could never be rolled forward.  That is
everything newer than ``archive_lsn`` *and* the whole history of every
transaction in flight while the dump ran -- the dump's flush steals their
uncommitted values into the page images, and only their undo records,
which sit at or below ``archive_lsn``, can take them out again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.disk import Disk


@dataclass
class Archive:
    """One node's off-line archive (survives both crashes and disk loss)."""

    #: segment -> {page: data}
    pages: dict[str, dict[int, dict]] = field(default_factory=dict)
    #: segment -> {page: sector-header sequence number}
    headers: dict[str, dict[int, int]] = field(default_factory=dict)
    #: log records at or below this LSN are fully reflected in the dump
    archive_lsn: int = 0
    #: oldest log record a roll-forward from this dump still needs (see
    #: the module docstring); log reclamation stops here until the next dump
    retain_from_lsn: int = 1
    dumps_taken: int = 0

    @property
    def empty(self) -> bool:
        return self.dumps_taken == 0

    def dump(self, disk: Disk, segment_ids: list[str], flushed_lsn: int,
             retain_from_lsn: int | None = None) -> None:
        """Copy the named segments' non-volatile images into the archive.

        Caller must have forced dirty pages to disk first, so the dump
        holds every record up to ``flushed_lsn``; ``retain_from_lsn`` is
        the first record of the oldest transaction whose uncommitted
        values that flush may have written (default: none were in flight).
        """
        for segment_id in segment_ids:
            self.pages[segment_id] = disk.pages_of_segment(segment_id)
            self.headers[segment_id] = disk.headers_of_segment(segment_id)
        self.archive_lsn = flushed_lsn
        self.retain_from_lsn = (flushed_lsn + 1 if retain_from_lsn is None
                                else min(retain_from_lsn, flushed_lsn + 1))
        self.dumps_taken += 1

    # -- page bases -------------------------------------------------------------

    def covers(self, segment_id: str) -> bool:
        """Is the segment in the archive at all?"""
        return segment_id in self.pages

    def page_image(self, segment_id: str,
                   page: int) -> tuple[dict[int, object], int]:
        """One archived page's (data, header) -- the base image a repair
        rolls forward.

        A page absent from an archived segment was first written *after*
        the dump; its base image is empty and its whole history lies in
        records above ``archive_lsn``, so the empty base is exact.
        """
        data = dict(self.pages.get(segment_id, {}).get(page, {}))
        header = self.headers.get(segment_id, {}).get(page, 0)
        return data, header
