"""Listener plumbing for the one HTTP stack: bind and one-line errors.

The asyncio server (:mod:`repro.serve.app`) is the only listener in
this codebase; it serves region reads for ``dpz serve`` and live
telemetry for ``dpz top --listen`` and ``$DPZ_METRICS_PORT``.  Binding
a TCP port or a unix socket happens here, and every operator-level
failure (port taken, privileged port, stale socket path owned by a
live process) surfaces as a one-line
:class:`~repro.errors.ConfigError`, never a socket traceback.  The
helpers return ready-to-listen sockets that the server adopts.
"""

from __future__ import annotations

import os
import socket
import stat

from repro.errors import ConfigError

__all__ = [
    "validate_port",
    "bind_failure",
    "bind_tcp_socket",
    "bind_unix_socket",
]

#: The listener kind named in every bind error.
_WHAT = "serve"


def validate_port(port: int) -> int:
    """Range-check a TCP port, returning it; raises ``ConfigError``."""
    if not 0 <= int(port) <= 65535:
        raise ConfigError(f"port must be in [0, 65535], got {port}")
    return int(port)


def bind_failure(location: str, exc: OSError) -> ConfigError:
    """The one-line bind-error shape for TCP and unix listeners."""
    return ConfigError(
        f"cannot bind {_WHAT} listener on {location}: "
        f"{exc.strerror or exc}")


def bind_tcp_socket(host: str, port: int, *,
                    backlog: int = 128) -> socket.socket:
    """Bind and listen on ``host:port``; returns the listening socket.

    ``SO_REUSEADDR`` is set so a drained restart does not trip over the
    previous socket's TIME_WAIT.  Failures raise the one-line
    :func:`bind_failure` ConfigError.
    """
    validate_port(port)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except OSError as exc:
        sock.close()
        raise bind_failure(f"{host}:{port}", exc) from None
    return sock


def bind_unix_socket(path: str, *,
                     backlog: int = 128) -> socket.socket:
    """Bind and listen on a unix-domain socket path.

    A stale socket file left by a dead process is unlinked and
    rebound; a path that exists but is *not* a socket is refused (we
    never delete an operator's regular file).  Failures raise the
    one-line :func:`bind_failure` ConfigError.
    """
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):
        mode = None
    if mode is not None:
        if not stat.S_ISSOCK(mode):
            raise ConfigError(
                f"refusing to bind {_WHAT} listener on {path!r}: path "
                f"exists and is not a socket")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale: owner is gone
        else:
            raise ConfigError(
                f"cannot bind {_WHAT} listener on {path!r}: socket is "
                f"in use by a live process")
        finally:
            probe.close()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(path)
        sock.listen(backlog)
    except OSError as exc:
        sock.close()
        raise bind_failure(repr(path), exc) from None
    return sock
