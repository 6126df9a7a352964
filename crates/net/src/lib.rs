//! traj-net: a dependency-free epoll connection reactor.
//!
//! Thread-per-connection serving caps concurrent users at thread
//! count; this crate moves every listener's accept/read/write onto one
//! event-loop thread so worker threads stay O(cores) while open
//! connections scale to the fd limit. No tokio, no mio, no libc crate:
//! the only syscalls not already wrapped by `std` (epoll itself) are
//! bound directly in [`sys`] behind a safe API — the crate's sole
//! `unsafe` module, mirroring the `traj_runtime::scope` discipline.
//!
//! Pieces:
//! - [`reactor`] — server side: per-connection HTTP/1.1 state machines,
//!   idle/slow-client deadlines, bounded heads and bodies, keep-alive,
//!   graceful drain. Complete requests go to a [`Service`]; responses
//!   come back through a [`Responder`] from any thread.
//! - [`client`] — client side: one thread multiplexing every in-flight
//!   backend request, with keep-alive pooling per address, plus the
//!   blocking [`client::request`] helper.
//! - [`http1`] — resumable request/response parsers shared by both.
//! - [`stats`] — the workspace's one atomic histogram and the counters
//!   behind the `/metrics` `"net"` section.

#![deny(unsafe_code)] // `sys` is the sole, audited exception.

pub mod client;
pub mod http1;
pub mod reactor;
pub mod stats;
mod sys;

pub use client::NetClient;
pub use http1::{render_request, render_response, Request};
pub use reactor::{spawn, ReactorConfig, ReactorHandle, Responder, Service};
pub use stats::NetStats;
