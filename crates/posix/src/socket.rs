//! Sockets: UNIX domain (with fd passing), TCP, and UDP (§5.3). A UDP
//! socket can be bound and checkpointed; datagram delivery is not
//! modelled.
//!
//! The checkpoint-relevant state is modelled faithfully: UNIX socket
//! buffers carry control messages with in-flight file descriptors; TCP
//! sockets carry the 5-tuple, sequence numbers, and buffers. A listening
//! socket's accept queue is not modelled (`Kernel::tcp_connect` accepts
//! at once); checkpoints would omit it anyway, since clients retransmit
//! their SYN (§5.3).

use crate::file::FileId;
use std::collections::VecDeque;

/// Socket domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// UNIX domain (filesystem namespace).
    Unix,
    /// IPv4.
    Inet,
}

/// Socket type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SockType {
    /// Stream (TCP or connected UNIX).
    Stream,
    /// Datagram (UDP or UNIX dgram).
    Dgram,
}

/// An IPv4 endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct InetAddr {
    /// Host address.
    pub ip: u32,
    /// Port.
    pub port: u16,
}

/// One buffered message: data plus any control-message fds in flight.
#[derive(Clone, Debug, Default)]
pub struct Message {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// In-flight descriptors (SCM_RIGHTS). The checkpointer must find and
    /// persist these — CRIU took seven years to support them (§2).
    pub fds: Vec<FileId>,
}

/// TCP connection state (subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Not yet connected/bound.
    Closed,
    /// Listening.
    Listen,
    /// Established connection.
    Established,
}

/// Socket options that must survive a checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SockOpts {
    /// TCP_NODELAY.
    pub nodelay: bool,
    /// SO_REUSEADDR.
    pub reuseaddr: bool,
    /// SO_KEEPALIVE.
    pub keepalive: bool,
}

/// A socket.
#[derive(Clone, Debug)]
pub struct Socket {
    /// Domain.
    pub domain: Domain,
    /// Type.
    pub stype: SockType,
    /// Options.
    pub opts: SockOpts,
    /// Bound UNIX path, if any.
    pub unix_path: Option<String>,
    /// Bound/connected IPv4 endpoints: (local, remote).
    pub inet: (InetAddr, InetAddr),
    /// TCP state.
    pub tcp_state: TcpState,
    /// Send sequence number (TCP).
    pub snd_seq: u32,
    /// Receive sequence number (TCP).
    pub rcv_seq: u32,
    /// Receive buffer.
    pub recv_buf: VecDeque<Message>,
    /// Send buffer (awaiting transmission or external-synchrony release).
    pub send_buf: VecDeque<Message>,
    /// Peer socket for connected pairs (same-kernel loopback and UNIX
    /// sockets).
    pub peer: Option<u64>,
    /// Monotone count of messages ever queued for send (used by external
    /// synchrony to seal batches by absolute index).
    pub sent_count: u64,
}

impl Socket {
    /// Creates an unbound socket.
    pub fn new(domain: Domain, stype: SockType) -> Self {
        Self {
            domain,
            stype,
            opts: SockOpts::default(),
            unix_path: None,
            inet: (InetAddr::default(), InetAddr::default()),
            tcp_state: TcpState::Closed,
            snd_seq: 0,
            rcv_seq: 0,
            recv_buf: VecDeque::new(),
            send_buf: VecDeque::new(),
            peer: None,
            sent_count: 0,
        }
    }
}
