//! Workspace-wide error type.
//!
//! Every crate in the workspace returns [`Error`] from fallible public
//! functions (directly or via a domain-specific wrapper that converts into
//! it), so cross-crate pipelines can use `?` end to end.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the Boreas simulation and modelling pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value was outside its legal range.
    InvalidConfig {
        /// Name of the offending parameter.
        what: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A named entity (workload, sensor, functional unit, …) was not found.
    NotFound {
        /// Kind of entity looked up.
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// Two data structures that must agree in shape did not.
    ShapeMismatch {
        /// What was being combined.
        what: &'static str,
        /// Expected dimension/length.
        expected: usize,
        /// Actual dimension/length.
        actual: usize,
    },
    /// A dataset was empty or otherwise unusable for training/evaluation.
    EmptyDataset(&'static str),
    /// A numerical routine failed to converge or produced non-finite values.
    Numerical(String),
    /// A filesystem or other I/O operation failed.
    Io {
        /// The subsystem performing the operation (e.g. `"artifact cache"`).
        what: &'static str,
        /// Human-readable description including the underlying OS error.
        detail: String,
    },
    /// A pipeline stage is operating in a degraded mode: its inputs were
    /// implausible or missing and a fallback (last-known-good value,
    /// conservative controller, …) took over.
    Degraded {
        /// The stage that degraded (e.g. `"sensor"`, `"controller"`).
        stage: &'static str,
        /// Human-readable description of what degraded and why.
        detail: String,
    },
    /// A wire-protocol violation: a malformed, oversized or truncated
    /// message on the serving socket.
    Protocol {
        /// Which protocol invariant was violated.
        kind: ProtocolKind,
        /// The protocol element at fault (e.g. `"frame length"`).
        what: &'static str,
        /// The remote address the violating bytes came from, when the
        /// error was raised on (or attributed to) a live connection.
        peer: Option<std::net::SocketAddr>,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A serving-daemon failure outside the wire protocol itself:
    /// binding a socket, spawning a reactor, shutting down.
    Server {
        /// Which daemon subsystem failed.
        kind: ServerKind,
        /// The server component at fault (e.g. `"listener"`).
        what: &'static str,
        /// The remote address involved, when the failure concerns one
        /// connection rather than the daemon as a whole.
        peer: Option<std::net::SocketAddr>,
        /// Human-readable description including any underlying OS error.
        detail: String,
    },
}

/// The class of wire-protocol violation in [`Error::Protocol`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolKind {
    /// The length-prefixed framing itself broke: an oversized prefix,
    /// a message truncated by a mid-body EOF, or leftover bytes.
    Framing,
    /// The message body is not syntactically valid (bad UTF-8, bad
    /// JSON, an unparseable number token, a binary frame of an unknown
    /// version or the wrong length).
    Malformed,
    /// The body parsed but does not match the expected schema: a
    /// missing field, a wrong type, an unknown enum value, a wrong
    /// element count.
    Schema,
    /// A value with no wire representation: a non-finite float handed
    /// to an encoder, read from a binary frame, or a number too large
    /// for an `f64`.
    NonFinite,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolKind::Framing => "framing",
            ProtocolKind::Malformed => "malformed",
            ProtocolKind::Schema => "schema",
            ProtocolKind::NonFinite => "non-finite",
        })
    }
}

/// The daemon subsystem at fault in [`Error::Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServerKind {
    /// Binding or configuring a listening socket.
    Bind,
    /// Configuring or duplicating a connected socket.
    Socket,
    /// Reading from or writing to a connected socket.
    Io,
    /// Spawning a daemon thread.
    Spawn,
    /// Joining a daemon thread (it panicked).
    Join,
    /// An epoll/reactor system call failed.
    Reactor,
    /// A client-side connect (load generator) failed.
    Connect,
    /// A benchmark regression gate (`--check`) failed.
    Check,
}

impl fmt::Display for ServerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServerKind::Bind => "bind",
            ServerKind::Socket => "socket",
            ServerKind::Io => "io",
            ServerKind::Spawn => "spawn",
            ServerKind::Join => "join",
            ServerKind::Reactor => "reactor",
            ServerKind::Connect => "connect",
            ServerKind::Check => "check",
        })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig { what, detail } => {
                write!(f, "invalid configuration for `{what}`: {detail}")
            }
            Error::NotFound { kind, name } => write!(f, "{kind} `{name}` not found"),
            Error::ShapeMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch in {what}: expected {expected}, got {actual}"
            ),
            Error::EmptyDataset(what) => write!(f, "empty dataset: {what}"),
            Error::Numerical(detail) => write!(f, "numerical failure: {detail}"),
            Error::Io { what, detail } => write!(f, "io failure in {what}: {detail}"),
            Error::Degraded { stage, detail } => {
                write!(f, "degraded `{stage}`: {detail}")
            }
            Error::Protocol {
                kind,
                what,
                peer,
                detail,
            } => {
                write!(f, "protocol violation ({kind}) in `{what}`")?;
                if let Some(peer) = peer {
                    write!(f, " from {peer}")?;
                }
                write!(f, ": {detail}")
            }
            Error::Server {
                kind,
                what,
                peer,
                detail,
            } => {
                write!(f, "server failure ({kind}) in `{what}`")?;
                if let Some(peer) = peer {
                    write!(f, " on {peer}")?;
                }
                write!(f, ": {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Shorthand constructor for [`Error::InvalidConfig`].
    pub fn invalid_config(what: &'static str, detail: impl Into<String>) -> Self {
        Error::InvalidConfig {
            what,
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`Error::NotFound`].
    pub fn not_found(kind: &'static str, name: impl Into<String>) -> Self {
        Error::NotFound {
            kind,
            name: name.into(),
        }
    }

    /// Shorthand constructor for [`Error::Io`].
    pub fn io(what: &'static str, detail: impl Into<String>) -> Self {
        Error::Io {
            what,
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`Error::Degraded`].
    pub fn degraded(stage: &'static str, detail: impl Into<String>) -> Self {
        Error::Degraded {
            stage,
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`Error::Protocol`]. The peer address
    /// is attached afterwards via [`Error::with_peer`] by the layer
    /// that knows which connection the bytes came from.
    pub fn protocol(kind: ProtocolKind, what: &'static str, detail: impl Into<String>) -> Self {
        Error::Protocol {
            kind,
            what,
            peer: None,
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`Error::Server`]. See
    /// [`Error::with_peer`] for attaching a connection address.
    pub fn server(kind: ServerKind, what: &'static str, detail: impl Into<String>) -> Self {
        Error::Server {
            kind,
            what,
            peer: None,
            detail: detail.into(),
        }
    }

    /// Attributes a [`Error::Protocol`] / [`Error::Server`] error to a
    /// remote address; other variants pass through unchanged.
    #[must_use]
    pub fn with_peer(mut self, addr: std::net::SocketAddr) -> Self {
        match &mut self {
            Error::Protocol { peer, .. } | Error::Server { peer, .. } => *peer = Some(addr),
            _ => {}
        }
        self
    }

    /// The structured kind of a [`Error::Protocol`] error, if this is
    /// one.
    pub fn protocol_kind(&self) -> Option<ProtocolKind> {
        match self {
            Error::Protocol { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// The structured kind of a [`Error::Server`] error, if this is
    /// one.
    pub fn server_kind(&self) -> Option<ServerKind> {
        match self {
            Error::Server { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// `true` when the error reports degraded (rather than failed)
    /// operation, i.e. a fallback value or policy is in effect.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Error::Degraded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = Error::invalid_config("grid", "must be at least 2x2");
        assert_eq!(
            e.to_string(),
            "invalid configuration for `grid`: must be at least 2x2"
        );
        let e = Error::not_found("workload", "quake");
        assert_eq!(e.to_string(), "workload `quake` not found");
        let e = Error::ShapeMismatch {
            what: "feature vector",
            expected: 20,
            actual: 19,
        };
        assert!(e.to_string().contains("expected 20, got 19"));
    }

    #[test]
    fn degraded_constructor_and_display() {
        let e = Error::degraded("sensor", "reading dropped at step 12");
        assert_eq!(
            e.to_string(),
            "degraded `sensor`: reading dropped at step 12"
        );
        assert!(e.is_degraded());
        assert!(!Error::EmptyDataset("train").is_degraded());
        match e {
            Error::Degraded { stage, detail } => {
                assert_eq!(stage, "sensor");
                assert!(detail.contains("step 12"));
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn io_constructor_and_display() {
        let e = Error::io("artifact cache", "cannot create /nope: permission denied");
        assert_eq!(
            e.to_string(),
            "io failure in artifact cache: cannot create /nope: permission denied"
        );
        assert!(!e.is_degraded());
    }

    #[test]
    fn protocol_and_server_constructors_and_display() {
        let e = Error::protocol(
            ProtocolKind::Framing,
            "frame length",
            "length 9999999 exceeds the 1 MiB cap",
        );
        assert_eq!(
            e.to_string(),
            "protocol violation (framing) in `frame length`: length 9999999 exceeds the 1 MiB cap"
        );
        assert_eq!(e.protocol_kind(), Some(ProtocolKind::Framing));
        assert_eq!(e.server_kind(), None);
        assert!(matches!(e, Error::Protocol { what, .. } if what == "frame length"));
        let e = Error::server(
            ServerKind::Bind,
            "listener",
            "cannot bind 127.0.0.1:7070: in use",
        );
        assert_eq!(
            e.to_string(),
            "server failure (bind) in `listener`: cannot bind 127.0.0.1:7070: in use"
        );
        assert_eq!(e.server_kind(), Some(ServerKind::Bind));
        assert!(!e.is_degraded());
    }

    #[test]
    fn peer_address_is_attached_and_displayed() {
        let addr: std::net::SocketAddr = "10.0.0.7:4242".parse().unwrap();
        let e =
            Error::protocol(ProtocolKind::Malformed, "frame", "body is not UTF-8").with_peer(addr);
        assert_eq!(
            e.to_string(),
            "protocol violation (malformed) in `frame` from 10.0.0.7:4242: body is not UTF-8"
        );
        assert!(matches!(&e, Error::Protocol { peer: Some(p), .. } if *p == addr));
        let e = Error::server(ServerKind::Io, "write_frame", "broken pipe").with_peer(addr);
        assert!(e.to_string().contains("on 10.0.0.7:4242"), "{e}");
        // Non-protocol variants pass through `with_peer` untouched.
        let e = Error::EmptyDataset("train").with_peer(addr);
        assert_eq!(e, Error::EmptyDataset("train"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(Error::EmptyDataset("train"));
        assert_eq!(e.to_string(), "empty dataset: train");
    }
}
