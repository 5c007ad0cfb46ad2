//! Little-endian wire primitives and the record codec shared by every
//! persisted format.
//!
//! [`Wire`] gives a type one wire form, and
//! [`wire_record!`](crate::wire_record) declares a record's fields in
//! on-disk order once, implementing both its encoder and its decoder.
//! Integers are little-endian; `bool` and the `Option` tag are one byte,
//! 0 or 1; `String` and `Vec` carry a `u32` count, and a `Vec<u8>` (or a
//! shared `Arc<[u8]>`, which encodes identically) moves as one slice
//! copy; a `HashMap` is written in key order, so equal maps encode
//! identically. A bad tag, a short read or a byte left over after
//! a record is an [`ObjError::Malformed`], never a panic.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use crate::error::{ObjError, Result};
use crate::hash::ContentHash;
use crate::section::SectionKind;

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a 16-bit little-endian value.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a 32-bit little-endian value.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a 64-bit little-endian value.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a 64-bit little-endian signed value.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a `u32`-length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// Checked little-endian byte reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some(s) = self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) else {
            return Err(ObjError::Malformed(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        };
        self.pos += n;
        Ok(s)
    }

    /// Reads `N` raw bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| ObjError::Malformed(format!("short read of {N} bytes")))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a 16-bit little-endian value.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a 32-bit little-endian value.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a 64-bit little-endian value.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a 64-bit little-endian signed value.
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        // `take` checks the length before anything is allocated.
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| ObjError::Malformed("string is not UTF-8".into()))
    }

    /// Ends a record: every byte must have been read.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ObjError::Malformed(format!("{n} trailing payload bytes"))),
        }
    }
}

/// A type with one wire form: `put` writes it, `get` reads it back.
pub trait Wire: Sized {
    /// Writes the value.
    fn put(&self, w: &mut Writer);

    /// Reads a value, or a typed error on malformed input.
    fn get(r: &mut Reader<'_>) -> Result<Self>;

    /// Writes a run of values (a `Vec`'s elements). `u8` overrides it
    /// with one slice copy.
    fn put_run(items: &[Self], w: &mut Writer) {
        for item in items {
            item.put(w);
        }
    }

    /// Reads a run of `n` values. Never preallocates from `n`, which may
    /// be a corrupt count.
    fn get_run(n: usize, r: &mut Reader<'_>) -> Result<Vec<Self>> {
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// A trailing optional section, named in a record as `field as
/// Trailing`: written only when it differs from the default (is
/// non-empty), read only when bytes remain. Records that never carry it
/// keep the bytes they had before the section existed.
#[derive(Debug)]
pub struct Trailing;

impl Trailing {
    /// Writes `v` unless it is the default.
    pub fn put<T: Wire + Default + PartialEq>(v: &T, w: &mut Writer) {
        if *v != T::default() {
            v.put(w);
        }
    }

    /// Reads a `T`, or the default when the record has ended.
    pub fn get<T: Wire + Default>(r: &mut Reader<'_>) -> Result<T> {
        if r.remaining() == 0 {
            Ok(T::default())
        } else {
            T::get(r)
        }
    }
}

/// The bytes of `v`'s wire form.
#[must_use]
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.put(&mut w);
    w.into_bytes()
}

/// Reads one `T` that must fill `bytes` exactly.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Declares a record's wire layout: its fields in on-disk order, each in
/// its type's [`Wire`] form, or in [`Trailing`]'s when written `field as
/// Trailing`. The one declaration implements both directions.
///
/// ```
/// use omos_obj::encode::{from_bytes, to_bytes};
///
/// #[derive(Debug, PartialEq)]
/// struct Row { name: String, addr: u32, note: Vec<u8> }
/// omos_obj::wire_record! { Row { addr, name, note as Trailing } }
///
/// let row = Row { name: "_sin".into(), addr: 0x1000, note: vec![] };
/// assert_eq!(to_bytes(&row), [0, 0x10, 0, 0, 4, 0, 0, 0, b'_', b's', b'i', b'n']);
/// assert_eq!(from_bytes::<Row>(&to_bytes(&row)).unwrap(), row);
/// ```
#[macro_export]
macro_rules! wire_record {
    (@put $w:ident, $v:expr) => {
        $crate::encode::Wire::put($v, $w)
    };
    (@put $w:ident, $v:expr, $codec:ident) => {
        $crate::encode::$codec::put($v, $w)
    };
    (@get $r:ident) => {
        $crate::encode::Wire::get($r)?
    };
    (@get $r:ident, $codec:ident) => {
        $crate::encode::$codec::get($r)?
    };
    ($ty:ident { $($field:ident $(as $codec:ident)?),* $(,)? }) => {
        impl $crate::encode::Wire for $ty {
            fn put(&self, w: &mut $crate::encode::Writer) {
                $($crate::wire_record!(@put w, &self.$field $(, $codec)?);)*
            }

            fn get(r: &mut $crate::encode::Reader<'_>) -> $crate::Result<Self> {
                // Struct-literal fields evaluate in the order written,
                // which is the declared wire order.
                Ok(Self {
                    $($field: $crate::wire_record!(@get r $(, $codec)?),)*
                })
            }
        }
    };
}

macro_rules! scalars {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

scalars!(u32, u64);

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.u8(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.u8()
    }

    fn put_run(items: &[u8], w: &mut Writer) {
        w.bytes(items);
    }

    fn get_run(n: usize, r: &mut Reader<'_>) -> Result<Vec<u8>> {
        r.bytes(n).map(<[u8]>::to_vec)
    }
}

/// Reads a 0/1 tag byte; anything else is malformed.
fn tag(r: &mut Reader<'_>, what: &str) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ObjError::Malformed(format!("bad {what} tag {other}"))),
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        tag(r, "bool")
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.str()
    }
}

impl Wire for ContentHash {
    fn put(&self, w: &mut Writer) {
        w.u64(self.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.u64().map(ContentHash)
    }
}

impl Wire for SectionKind {
    fn put(&self, w: &mut Writer) {
        w.u8(self.code());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let code = r.u8()?;
        SectionKind::from_code(code)
            .ok_or_else(|| ObjError::Malformed(format!("bad section kind code {code}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        T::put_run(self, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.u32()? as usize;
        T::get_run(n, r)
    }
}

/// A shared byte buffer: the same wire form as a `Vec<u8>`.
impl Wire for Arc<[u8]> {
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        w.bytes(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.u32()? as usize;
        r.bytes(n).map(Arc::from)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
            None => w.u8(0),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        if tag(r, "option")? {
            T::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<K: Wire + Ord + Hash, V: Wire> Wire for HashMap<K, V> {
    fn put(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.u32(entries.len() as u32);
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.u32()?;
        let mut map = HashMap::new();
        for _ in 0..n {
            let k = K::get(r)?;
            map.insert(k, V::get(r)?);
        }
        Ok(map)
    }
}

macro_rules! tuples {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, w: &mut Writer) {
                $(self.$i.put(w);)+
            }

            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($(<$t>::get(r)?,)+))
            }
        }
    )*};
}

tuples! {
    (A 0, B 1)
    (A 0, B 1, C 2)
}
