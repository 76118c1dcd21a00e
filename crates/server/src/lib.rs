//! Simulation-as-a-service: a dependency-free HTTP/1.1 front door over
//! the `allarm_core` job scheduler.
//!
//! The crate splits like firecracker's `micro_http`/`api_server` pair:
//!
//! * [`http`] — the wire. A hand-rolled HTTP/1.1 request parser with hard
//!   size limits (incremental, so short reads and pipelined keep-alive
//!   connections work), response encoding, and chunked transfer encoding
//!   for streams. Knows nothing about simulations.
//! * [`api`] — the semantics. Routes requests onto a shared
//!   [`allarm_core::JobScheduler`], parsing scenario documents through
//!   the same loader as `scenario_run`/`trace_tool` so every front door
//!   rejects a malformed document with identical error text.
//! * [`server`] — the sockets. Listener, per-connection keep-alive loop,
//!   and the chunked JSONL result stream.
//!
//! Everything is `std::net` + in-tree crates: this workspace builds with
//! no network access, so the server is implemented by hand rather than
//! pulled in as a dependency.
//!
//! # Quick start
//!
//! ```
//! use allarm_server::{Server, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
//! conn.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200 OK"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod api;
pub mod http;
pub mod server;

pub use api::{status_json, Api, Handled};
pub use http::{HttpError, HttpLimits, Method, Request, RequestParser, Response, StatusCode};
pub use server::{Server, ServerConfig};
