//! A record is its field list (§5.2).
//!
//! Every serialized kernel object is a *record*: a versioned,
//! self-contained encoding of its user-visible and kernel state that
//! references other objects by OID. Sharing is never inferred — it is
//! preserved by the references themselves: two fd slots pointing to one
//! description encode the same file OID.
//!
//! [`Wire`] is implemented once per field type; [`record!`] declares a
//! record struct with its fields in wire order and derives both
//! directions from that one list, so an encoder and a decoder cannot
//! disagree. [`Record`] adds the frame (`tag, version, len`). Decoding
//! treats the bytes as hostile: a count is checked against the bytes
//! left before anything is allocated, an enum byte outside its range is
//! refused, and only the exact version this build writes is accepted.

use crate::error::SlsError;
use aurora_objstore::Oid;
use aurora_posix::kqueue::Filter;
use aurora_posix::process::Regs;
use aurora_posix::socket::{Domain, SockType, TcpState};
use aurora_sim::codec::{CodecError, Decoder, Encoder};
use aurora_vm::Inherit;

/// A value with one wire encoding.
pub trait Wire: Sized {
    /// Appends the value.
    fn put(&self, e: &mut Encoder);

    /// Reads the value back.
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError>;

    /// `Vec<Self>` on the wire: a `u32` count, then the items. (`u8`
    /// overrides both halves with the bulk byte-string path — the same
    /// bytes, one copy.)
    fn put_all(items: &[Self], e: &mut Encoder) {
        e.u32(items.len() as u32);
        for item in items {
            item.put(e);
        }
    }

    /// Reads a `Vec<Self>`. Every element occupies at least one byte, so
    /// a count larger than what is left of the record is refused before
    /// it can size an allocation.
    fn get_all(d: &mut Decoder<'_>) -> Result<Vec<Self>, SlsError> {
        let n = d.u32()? as usize;
        if n > d.remaining() {
            return Err(SlsError::BadImage("count exceeds record"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(d)?);
        }
        Ok(out)
    }
}

macro_rules! wire_scalar {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, e: &mut Encoder) {
                e.$t(*self)
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
                Ok(d.$t()?)
            }
        }
    )*};
}
wire_scalar!(u16, u32, u64, i64, bool);

impl Wire for u8 {
    fn put(&self, e: &mut Encoder) {
        e.u8(*self)
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        Ok(d.u8()?)
    }
    fn put_all(items: &[Self], e: &mut Encoder) {
        e.bytes(items)
    }
    fn get_all(d: &mut Decoder<'_>) -> Result<Vec<Self>, SlsError> {
        Ok(d.bytes()?.to_vec())
    }
}

impl Wire for i8 {
    fn put(&self, e: &mut Encoder) {
        e.u8(*self as u8)
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        Ok(d.u8()? as i8)
    }
}

impl Wire for String {
    fn put(&self, e: &mut Encoder) {
        e.str(self)
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        Ok(d.str()?.to_string())
    }
}

impl Wire for Oid {
    fn put(&self, e: &mut Encoder) {
        e.u64(self.0)
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        Ok(Oid(d.u64()?))
    }
}

/// Presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Encoder) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        Ok(if d.bool()? { Some(T::get(d)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        T::put_all(self, e)
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        T::get_all(d)
    }
}

impl<const N: usize> Wire for [u64; N] {
    fn put(&self, e: &mut Encoder) {
        for v in self {
            e.u64(*v);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        let mut out = [0u64; N];
        for v in &mut out {
            *v = d.u64()?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($n:tt $t:ident),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, e: &mut Encoder) {
                $(self.$n.put(e);)+
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
                Ok(($($t::get(d)?,)+))
            }
        }
    };
}
wire_tuple!(0 A, 1 B);
wire_tuple!(0 A, 1 B, 2 C);
wire_tuple!(0 A, 1 B, 2 C, 3 D);

/// A fieldless enum as one byte; a byte naming no variant is a corrupt
/// image, never a default.
macro_rules! wire_enum {
    ($t:ident, $what:literal: $($v:ident = $b:literal),+) => {
        impl $crate::wire::Wire for $t {
            fn put(&self, e: &mut aurora_sim::codec::Encoder) {
                e.u8(match self {
                    $($t::$v => $b,)+
                })
            }
            fn get(d: &mut aurora_sim::codec::Decoder<'_>) -> Result<Self, $crate::SlsError> {
                Ok(match d.u8()? {
                    $($b => $t::$v,)+
                    _ => return Err($crate::SlsError::BadImage($what)),
                })
            }
        }
    };
}
pub(crate) use wire_enum;
wire_enum!(Domain, "socket domain": Unix = 0, Inet = 1);
wire_enum!(SockType, "socket type": Stream = 0, Dgram = 1);
wire_enum!(TcpState, "tcp state": Closed = 0, Listen = 1, Established = 2);
wire_enum!(Filter, "kevent filter": Read = 0, Write = 1, Timer = 2, Proc = 3);
wire_enum!(Inherit, "inherit": Share = 0, Copy = 1, None = 2);

/// Registers off the kernel stack, FPU state flushed by IPI (§5.1).
impl Wire for Regs {
    fn put(&self, e: &mut Encoder) {
        self.pc.put(e);
        self.sp.put(e);
        self.gp.put(e);
        self.fpu.put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        Ok(Regs { pc: Wire::get(d)?, sp: Wire::get(d)?, gp: Wire::get(d)?, fpu: Wire::get(d)? })
    }
}

/// A [`Wire`] struct that is stored on its own, framed as
/// `tag:u16, version:u16, len:u32, body`.
pub trait Record: Wire {
    /// Record tag (for kernel objects, the [`Kind`](crate::Kind)).
    const TAG: u16;
    /// The one version of the layout this build reads and writes.
    const VERSION: u16;

    /// The framed record.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.record(Self::TAG, Self::VERSION, |body| self.put(body));
        e.finish_vec()
    }

    /// Decodes a framed record of exactly this tag and version.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SlsError> {
        let (found, mut body) = Decoder::new(bytes).record(Self::TAG, Self::VERSION)?;
        if found != Self::VERSION {
            let (tag, supported) = (Self::TAG, Self::VERSION);
            return Err(CodecError::BadVersion { tag, supported, found }.into());
        }
        Self::get(&mut body)
    }
}

/// Declares a record struct, fields in wire order, and derives [`Wire`]
/// from that list; with `= tag, v N` after the name, also [`Record`].
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(= $tag:expr, v $version:literal)? {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::wire::Wire for $name {
            fn put(&self, e: &mut aurora_sim::codec::Encoder) {
                $($crate::wire::Wire::put(&self.$field, e);)*
            }
            fn get(d: &mut aurora_sim::codec::Decoder<'_>) -> Result<Self, $crate::SlsError> {
                Ok(Self { $($field: $crate::wire::Wire::get(d)?,)* })
            }
        }

        $(impl $crate::wire::Record for $name {
            const TAG: u16 = $tag;
            const VERSION: u16 = $version;
        })?
    };
}
pub(crate) use record;
