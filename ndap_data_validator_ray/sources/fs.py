"""URI-aware filesystem helpers — the engine's remote/object-store layer.

The reference reads and publishes S3 folders end-to-end (its lister/getter:
``s3_uploader.py:42-72``, folder validation loop ``main.py:625-668``).  The
engine's equivalents route every path through this module so any component
(shard lister, lineage content address, checkpoint manifests, Ray parquet
reads) accepts either a plain local path or a URI (``s3://bucket/prefix``,
``file:///abs/path``, anything ``pyarrow.fs.FileSystem.from_uri`` knows).

Configuration is standard AWS environment variables only
(``AWS_ENDPOINT_URL`` / ``AWS_ACCESS_KEY_ID`` / ``AWS_SECRET_ACCESS_KEY`` /
``AWS_REGION``) — an endpoint override makes any S3-compatible store work,
which is also how the test suite runs a real loopback S3 (moto server).

Write semantics: local files use write-temp + atomic rename; S3 objects use
a single PUT (atomic by object-store semantics — readers never observe a
partial object), via boto3 when available because pyarrow's multipart
writer requires CompleteMultipartUpload responses some S3 emulators don't
produce; other remote filesystems use the pyarrow output stream.
"""

from __future__ import annotations

import os

import pyarrow.fs as pafs


def is_uri(path: str) -> bool:
    return "://" in str(path)


def split_scheme(path: str) -> tuple[str, str]:
    scheme, rest = str(path).split("://", 1)
    return scheme, rest


def _s3_env_kwargs() -> dict:
    kw: dict = {"region": os.environ.get("AWS_REGION", "us-east-1")}
    if os.environ.get("AWS_ENDPOINT_URL"):
        kw["endpoint_override"] = os.environ["AWS_ENDPOINT_URL"]
    if os.environ.get("AWS_ACCESS_KEY_ID"):
        kw["access_key"] = os.environ["AWS_ACCESS_KEY_ID"]
        kw["secret_key"] = os.environ.get("AWS_SECRET_ACCESS_KEY", "")
    return kw


def resolve(path: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, scheme-less path) for a local path or URI."""
    if not is_uri(path):
        return pafs.LocalFileSystem(), str(path)
    scheme, rest = split_scheme(path)
    if scheme == "file":
        return pafs.LocalFileSystem(), rest
    if scheme == "s3":
        return pafs.S3FileSystem(**_s3_env_kwargs()), rest
    return pafs.FileSystem.from_uri(path)


def join(base: str, *parts: str) -> str:
    if is_uri(base):
        return "/".join([str(base).rstrip("/"), *parts])
    return os.path.join(base, *parts)


def basename(path: str) -> str:
    return str(path).rstrip("/").rsplit("/", 1)[-1]


def _requalify(dir_path: str, raw_paths: list[str]) -> list[str]:
    """Re-attach the input's scheme so callers keep working in URI space."""
    if not is_uri(dir_path):
        return raw_paths
    scheme, _ = split_scheme(dir_path)
    if scheme == "file":
        return raw_paths
    return [f"{scheme}://{p}" for p in raw_paths]


def list_files(dir_path: str) -> list[str]:
    """Sorted file paths directly under ``dir_path`` (URIs stay URIs) —
    the deterministic folder lister (reference S4)."""
    fs, norm = resolve(dir_path)
    sel = pafs.FileSelector(norm, recursive=False, allow_not_found=True)
    infos = fs.get_file_info(sel)
    return _requalify(dir_path, sorted(i.path for i in infos if i.type == pafs.FileType.File))


def file_sizes(dir_path: str) -> dict[str, int]:
    """``{basename: size}`` of the files directly under ``dir_path``."""
    fs, norm = resolve(dir_path)
    infos = fs.get_file_info(pafs.FileSelector(norm, recursive=False, allow_not_found=True))
    return {basename(i.path): int(i.size or 0) for i in infos if i.type == pafs.FileType.File}


def aws_env() -> dict[str, str]:
    """This process's ``AWS_*`` config.  A Ray worker started before the
    driver set it does not inherit it: tasks that touch object-store URIs
    get this dict and apply it first."""
    return {k: v for k, v in os.environ.items() if k.startswith("AWS_")}


def file_size(path: str) -> int:
    fs, p = resolve(path)
    return int(fs.get_file_info(p).size or 0)


def exists(path: str) -> bool:
    fs, p = resolve(path)
    return fs.get_file_info(p).type != pafs.FileType.NotFound


def open_input(path: str):
    """Random-access input file (seekable)."""
    fs, p = resolve(path)
    return fs.open_input_file(p)


def read_bytes(path: str) -> bytes:
    with open_input(path) as f:
        return f.read()


def ensure_dir(path: str) -> None:
    """mkdir -p for local paths; no-op for object stores (no directories)."""
    if is_uri(path) and not str(path).startswith("file://"):
        return
    fs, p = resolve(path)
    os.makedirs(p, exist_ok=True)


def delete_dir(path: str) -> None:
    """Recursive delete, tolerant of the path not existing."""
    fs, p = resolve(path)
    try:
        fs.delete_dir_contents(p, missing_dir_ok=True)
        fs.delete_dir(p)
    except (FileNotFoundError, OSError):
        pass


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write ``data`` so readers never observe a partial file: local =
    temp + rename; S3 = single PUT (atomic object visibility); other
    remote = pyarrow output stream."""
    if is_uri(path) and split_scheme(path)[0] == "s3":
        try:
            import boto3  # single PUT: no multipart handshake needed

            bucket, key = split_scheme(path)[1].split("/", 1)
            boto3.client("s3", endpoint_url=os.environ.get("AWS_ENDPOINT_URL") or None).put_object(
                Bucket=bucket, Key=key, Body=data
            )
            return
        except ImportError:
            pass
    fs, p = resolve(path)
    if isinstance(fs, pafs.LocalFileSystem):
        tmp = p + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, p)
        return
    with fs.open_output_stream(p) as f:
        f.write(data)


def delete_file(path: str) -> None:
    fs, p = resolve(path)
    try:
        fs.delete_file(p)
    except (FileNotFoundError, OSError):
        pass
