"""A transactional file system server (Section 2.2's motivation).

The paper cites "a few experimental transactional file systems, e.g., one
described by Paxton" as the kind of abstraction general-purpose
transactions should make easy, and its Conclusions predict "specialized
... file systems ... could be based on the implementation techniques that
our existing servers use".  This server is that prediction made concrete,
and it is deliberately a *composition*: the hierarchy lives in the B-tree
server's directories, file contents live in chunked pages drawn from the
same recoverable storage allocator, and every mutation rides the
marked-object batch -- no new recovery or locking machinery at all.

The payoff is the transactional one: any group of file operations --
create + write + rename across files -- commits or aborts as a unit, and
survives crashes, because the substrate already does.

Layout: metadata entries in B-tree directory ``fs`` map normalized paths
("/", "/etc", "/etc/motd") to ``{"kind", "pages", "size"}``; content pages
hold string chunks of at most :data:`CHUNK_CHARS` characters.
"""

from __future__ import annotations

from repro.errors import ServerError
from repro.servers.btree import BTreeServer, KeyNotFound, META_PAGE
from repro.txn.ids import TransactionID

#: characters of file content stored per page
CHUNK_CHARS = 256

FS_DIRECTORY = "fs"


class NotAFile(ServerError):
    pass


class NotADirectory(ServerError):
    pass


class DirectoryNotEmpty(ServerError):
    pass


def normalize(path: str) -> str:
    """Canonical absolute path: '/', '/a', '/a/b' (no trailing slash)."""
    if not path.startswith("/"):
        raise ServerError(f"paths are absolute; got {path!r}")
    parts = [part for part in path.split("/") if part]
    return "/" + "/".join(parts)


def parent_of(path: str) -> str:
    if path == "/":
        raise ServerError("the root has no parent")
    return normalize(path.rsplit("/", 1)[0] or "/")


class TransactionalFileSystemServer(BTreeServer):
    """mkfs / mkdir / create / write / append / read / remove / rename /
    list_dir / stat, all inside the caller's transaction."""

    TYPE_NAME = "filesystem"
    SEGMENT_PAGES = 1024

    # -- helpers over the B-tree substrate ------------------------------------

    def _lookup_entry(self, overlay, path: str):
        root = self._root_of(overlay, FS_DIRECTORY)
        entry = yield from self._find(overlay, root, path)
        return entry

    def _require(self, overlay, path: str, kind: str | None = None):
        entry = yield from self._lookup_entry(overlay, path)
        if entry is None:
            raise KeyNotFound(f"no such path {path!r}")
        if kind == "file" and entry["kind"] != "file":
            raise NotAFile(f"{path!r} is a directory")
        if kind == "dir" and entry["kind"] != "dir":
            raise NotADirectory(f"{path!r} is a file")
        return entry

    def _set_entry(self, overlay, path: str, entry: dict | None,
                   create: bool = False):
        """Insert, update, or (entry=None) delete a metadata entry."""
        root = self._root_of(overlay, FS_DIRECTORY)
        if entry is None:
            root = yield from self._delete(overlay, root, path)
        elif create:
            root = yield from self._insert(overlay, root, path, entry)
        else:
            yield from self._update(overlay, root, path, entry)
        overlay.dirty[META_PAGE]["directories"][FS_DIRECTORY] = root

    def _write_chunks(self, overlay, data: str) -> list[int]:
        pages = []
        for start in range(0, max(len(data), 1), CHUNK_CHARS):
            page = overlay.allocate()
            overlay.write(page, data[start:start + CHUNK_CHARS])
            pages.append(page)
        return pages

    def _free_pages(self, overlay, pages: list[int]) -> None:
        for page in pages:
            overlay.write(page, None)  # scrub, so reads cannot resurrect
            overlay.release(page)

    def _mutate(self, tid: TransactionID, body_fn):
        """Common mutation wrapper: tree write lock, overlay, install."""
        from repro.locking.modes import WRITE

        yield from self.library.lock_object(
            tid, self._tree_lock_key(FS_DIRECTORY), WRITE)
        overlay = yield from self._begin_overlay(tid, load_allocator=True)
        result = yield from body_fn(overlay)
        yield from self._install_overlay(tid, overlay)
        return result

    def _read_view(self, tid: TransactionID):
        from repro.locking.modes import READ

        yield from self.library.lock_object(
            tid, self._tree_lock_key(FS_DIRECTORY), READ)
        overlay = yield from self._begin_overlay(tid, load_allocator=False)
        return overlay

    # -- operations -----------------------------------------------------------

    def op_mkfs(self, body: dict, tid: TransactionID):
        """Create the (empty) file system: a root directory entry."""
        del body
        yield from self.op_create_directory({"directory": FS_DIRECTORY},
                                            tid)

        def build(overlay):
            yield from self._set_entry(
                overlay, "/", {"kind": "dir", "pages": [], "size": 0},
                create=True)
            return {}

        result = yield from self._mutate(tid, build)
        return result

    def op_mkdir(self, body: dict, tid: TransactionID):
        return self._new_entry(body, tid, "dir")

    def op_create(self, body: dict, tid: TransactionID):
        return self._new_entry(body, tid, "file")

    def _new_entry(self, body: dict, tid: TransactionID, kind: str):
        """An empty entry of ``kind`` at the path, inside an existing
        directory (generator)."""
        path = normalize(body["path"])

        def build(overlay):
            yield from self._require(overlay, parent_of(path), "dir")
            yield from self._set_entry(
                overlay, path, {"kind": kind, "pages": [], "size": 0},
                create=True)
            return {}

        result = yield from self._mutate(tid, build)
        return result

    def op_write(self, body: dict, tid: TransactionID):
        """Replace a file's contents (old pages return to the pool)."""
        path = normalize(body["path"])
        data = str(body["data"])

        def build(overlay):
            entry = yield from self._require(overlay, path, "file")
            self._free_pages(overlay, entry["pages"])
            pages = self._write_chunks(overlay, data) if data else []
            yield from self._set_entry(
                overlay, path,
                {"kind": "file", "pages": pages, "size": len(data)})
            return {"size": len(data)}

        result = yield from self._mutate(tid, build)
        return result

    def op_append(self, body: dict, tid: TransactionID):
        path = normalize(body["path"])
        data = str(body["data"])

        def build(overlay):
            entry = yield from self._require(overlay, path, "file")
            pages = list(entry["pages"])
            tail = ""
            if pages and entry["size"] % CHUNK_CHARS != 0:
                tail = yield from overlay.read(pages[-1])
                self._free_pages(overlay, [pages.pop()])
            pages.extend(self._write_chunks(overlay, tail + data)
                         if tail + data else [])
            yield from self._set_entry(
                overlay, path, {"kind": "file", "pages": pages,
                                "size": entry["size"] + len(data)})
            return {"size": entry["size"] + len(data)}

        result = yield from self._mutate(tid, build)
        return result

    def op_read(self, body: dict, tid: TransactionID):
        path = normalize(body["path"])
        overlay = yield from self._read_view(tid)
        entry = yield from self._require(overlay, path, "file")
        chunks = []
        for page in entry["pages"]:
            chunk = yield from overlay.read(page)
            chunks.append(chunk or "")
        return {"data": "".join(chunks)[:entry["size"]],
                "size": entry["size"]}

    def op_stat(self, body: dict, tid: TransactionID):
        path = normalize(body["path"])
        overlay = yield from self._read_view(tid)
        entry = yield from self._require(overlay, path)
        return {"kind": entry["kind"], "size": entry["size"]}

    def op_list_dir(self, body: dict, tid: TransactionID):
        path = normalize(body["path"])
        overlay = yield from self._read_view(tid)
        yield from self._require(overlay, path, "dir")
        names = yield from self._children_of(overlay, path)
        return {"entries": sorted(names)}

    def _children_of(self, overlay, path: str):
        prefix = path if path.endswith("/") else path + "/"
        root = self._root_of(overlay, FS_DIRECTORY)
        out: list = []
        yield from self._scan(overlay, root, prefix, prefix + "￿", out)
        # Direct children only: drop the directory's own entry (an empty
        # suffix, for the root) and anything nested deeper.
        return [key[len(prefix):] for key, _ in out
                if key[len(prefix):] and "/" not in key[len(prefix):]]

    def op_remove(self, body: dict, tid: TransactionID):
        path = normalize(body["path"])
        if path == "/":
            raise ServerError("cannot remove the root")

        def build(overlay):
            entry = yield from self._require(overlay, path)
            if entry["kind"] == "dir":
                children = yield from self._children_of(overlay, path)
                if children:
                    raise DirectoryNotEmpty(f"{path!r} is not empty")
            self._free_pages(overlay, entry["pages"])
            yield from self._set_entry(overlay, path, None)
            return {}

        result = yield from self._mutate(tid, build)
        return result

    def op_rename(self, body: dict, tid: TransactionID):
        """Move a file or a whole subtree; atomic like everything else."""
        source = normalize(body["source"])
        target = normalize(body["target"])
        if source == "/" or target.startswith(source + "/"):
            raise ServerError(f"cannot rename {source!r} into itself")

        def build(overlay):
            yield from self._require(overlay, parent_of(target), "dir")
            existing = yield from self._lookup_entry(overlay, target)
            if existing is not None:
                raise ServerError(f"{target!r} already exists")
            entry = yield from self._require(overlay, source)
            # Gather the subtree (the entry itself plus any descendants).
            root = self._root_of(overlay, FS_DIRECTORY)
            moves: list = [(source, entry)]
            if entry["kind"] == "dir":
                out: list = []
                yield from self._scan(overlay, root, source + "/",
                                      source + "/￿", out)
                moves.extend(out)
            for old_path, old_entry in moves:
                new_path = target + old_path[len(source):]
                yield from self._set_entry(overlay, old_path, None)
                yield from self._set_entry(overlay, new_path, old_entry,
                                           create=True)
            return {"moved": len(moves)}

        result = yield from self._mutate(tid, build)
        return result
