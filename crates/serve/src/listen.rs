//! The listening socket and the process stop signal — shared by every
//! accept loop in the workspace (the daemon here, the cluster front-end).

use hawkeye_client::AnyStream;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Where a daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    Unix(PathBuf),
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    Tcp(String),
}

impl Endpoint {
    /// Bind a non-blocking listener. A previous unclean exit (`kill -9`)
    /// leaves a unix socket file behind; it is removed first.
    pub fn bind(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }
}

/// A bound, non-blocking listener. Dropping it removes the unix socket
/// file, so a graceful stop never leaves a stale one behind.
pub enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    /// One pending connection, or `WouldBlock` when there is none.
    pub fn accept(&self) -> io::Result<AnyStream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Acks are 5–17 byte frames; leaving Nagle on lets
                // delayed-ACK stall the client's credit window.
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
        }
    }

    /// The bound TCP address (for port-0 binds); `None` on a unix socket.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Set by the process signal handler, polled by every accept loop.
static SIG_STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one atomic store, nothing else.
    SIG_STOP.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request a graceful stop of every
/// accept loop in this process: each notices [`stop_signalled`] within its
/// poll interval and runs the same teardown a `Shutdown` request does, so
/// `kill -TERM` never leaves a stale socket behind. `std` already links
/// libc, so `signal(2)` is declared directly instead of pulling in a
/// binding crate.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal(2)` with a handler that only stores to an atomic,
    // which is async-signal-safe; the handler is a plain `extern "C" fn`
    // that lives for the whole process.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// True once SIGINT/SIGTERM arrived (after [`install_signal_handlers`]).
pub fn stop_signalled() -> bool {
    SIG_STOP.load(Ordering::SeqCst)
}
