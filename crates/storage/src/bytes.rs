//! The one way bytes enter and leave this crate's five formats: the
//! record/value codec ([`crate::spill`]), the catalog image
//! ([`crate::pager::image`]), the index blob ([`crate::index`]), the WAL's
//! frames and commit records ([`crate::wal`]) and the database header
//! page ([`crate::pager::store`]). All are little-endian and
//! length-prefixed, with integer values as varints; only
//! [`crate::pager::page`]'s fixed-offset slot accessors touch bytes
//! without going through here.
//!
//! A [`Reader`] decides, once, how much outside bytes may claim:
//!
//! * **bounds** — every read is checked against what remains; running out
//!   is a [`ModelError::Io`] naming the format;
//! * **counts** — [`Reader::count`] refuses an element count the remaining
//!   bytes cannot hold, so a caller may allocate for exactly what it read;
//! * **nesting** — recursive decoders spend a budget of [`MAX_NESTING`]
//!   levels through [`Reader::descend`], so no bytes can exhaust the stack;
//! * **trailing bytes** — [`Reader::finish`] fails unless everything was
//!   consumed.
//!
//! The `put_*` writers are the matching half over a `Vec<u8>`.

use tmql_model::{ModelError, Result};

/// Container levels a decoder will follow into one payload. Decoding a
/// level, and later comparing, hashing, printing or dropping it, costs up
/// to 4 KB of stack in an unoptimized build (measured), so a value this
/// deep uses a quarter of a worker thread's 2 MB. It is above anything
/// the language can build: the parser refuses a statement nested deeper
/// than `tmql_lang::MAX_QUERY_NESTING` (64), half of this. Deeper values
/// exist only in tables built through the Rust API; they encode, and
/// reading them back is an `Io` error instead of a stack overflow.
pub(crate) const MAX_NESTING: u32 = 128;

/// What the write path says to a value or type that nests past
/// [`MAX_NESTING`]: the encoders cannot fail, so unchecked it would be
/// written and fail on its first read.
pub(crate) fn too_deep_to_store(what: &str) -> ModelError {
    ModelError::SchemaError(format!(
        "a {what} nests deeper than {MAX_NESTING} levels, which the store cannot read back"
    ))
}

/// A checked cursor over bytes from outside the program (see the
/// [module docs](self)). Its accessors are always inlined and its errors
/// are built out of line from its parts by value, so a reader whose
/// address is never taken lives in registers: a row's skip-scan or
/// decode pays the bounds checks and nothing for the cursor itself.
#[derive(Clone)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    /// How many bytes of `buf` are consumed; never past its end.
    pos: usize,
    /// The format being decoded, for error messages.
    format: &'static str,
    /// Nesting levels still allowed below the current one.
    nesting_left: u32,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(format: &'static str, buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            format,
            nesting_left: MAX_NESTING,
        }
    }

    /// A malformed-bytes error of this reader's format.
    #[inline]
    pub(crate) fn err(&self, what: impl std::fmt::Display) -> ModelError {
        malformed(self.format, what)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline(always)]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // A wrapped sum is below `pos`, and `get` refuses that range too.
        let end = self.pos.wrapping_add(n);
        match self.buf.get(self.pos..end) {
            Some(bytes) => {
                self.pos = end;
                Ok(bytes)
            }
            None => Err(self.truncated(n)),
        }
    }

    #[inline(always)]
    fn truncated(&self, n: usize) -> ModelError {
        truncated(self.format, n, self.remaining())
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    #[inline(always)]
    pub(crate) fn u8(&mut self) -> Result<u8> {
        match self.buf.get(self.pos) {
            Some(&byte) => {
                self.pos += 1;
                Ok(byte)
            }
            None => Err(self.truncated(1)),
        }
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    #[inline(always)]
    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline(always)]
    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An unsigned LEB128 varint: seven bits a byte, low group first, at
    /// most ten bytes. An eleventh byte, or a tenth with more than the
    /// 64th bit in it, is malformed — no two encodings decode alike past
    /// the last one a writer could make.
    #[inline(always)]
    pub(crate) fn uvarint(&mut self) -> Result<u64> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(first as u64);
        }
        self.uvarint_rest(first)
    }

    /// [`Reader::uvarint`] past a first byte that has a continuation.
    #[inline]
    fn uvarint_rest(&mut self, first: u8) -> Result<u64> {
        let mut v = (first & 0x7f) as u64;
        for shift in (7..63).step_by(7) {
            let byte = self.u8()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte < 0x80 {
                return Ok(v);
            }
        }
        match self.u8()? {
            last @ 0..=1 => Ok(v | (last as u64) << 63),
            _ => Err(self.err("varint past 64 bits or 10 bytes")),
        }
    }

    /// A float stored as its bit pattern (NaN payloads survive).
    #[inline(always)]
    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` length and that many bytes.
    #[inline(always)]
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub(crate) fn str(&mut self) -> Result<&'a str> {
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes).map_err(|e| self.err(format_args!("invalid UTF-8: {e}")))
    }

    /// A `u32` element count, refused unless the remaining bytes can hold
    /// that many elements of at least `min_elem_bytes` each — so the
    /// caller may allocate for `n` elements without trusting the bytes.
    #[inline]
    pub(crate) fn count(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(self.err(format_args!(
                "count {n} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A counted run: a [`Reader::count`], then that many elements, each
    /// read by `elem` into a vector allocated for exactly the count.
    pub(crate) fn counted<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(min_elem_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(elem(self)?);
        }
        Ok(items)
    }

    /// Enter one container level; an error once [`MAX_NESTING`] are open.
    /// Pair with [`Reader::ascend`] on the way out (an `Err` abandons the
    /// reader, so error paths need not).
    #[inline]
    pub(crate) fn descend(&mut self) -> Result<()> {
        match self.nesting_left.checked_sub(1) {
            Some(left) => {
                self.nesting_left = left;
                Ok(())
            }
            None => Err(self.err(format_args!("nested too deep (over {MAX_NESTING} levels)"))),
        }
    }

    /// Leave the container level [`Reader::descend`] entered.
    #[inline]
    pub(crate) fn ascend(&mut self) {
        self.nesting_left += 1;
    }

    /// Fails unless every byte was consumed.
    pub(crate) fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.err(format_args!("{n} trailing bytes"))),
        }
    }
}

/// A malformed-bytes error of `format`. Out of line and handed the
/// reader's parts by value: the decoders' hot paths carry a call, not the
/// formatting, and a reader never has to leave its registers for it.
#[cold]
#[inline(never)]
fn malformed(format: &str, what: impl std::fmt::Display) -> ModelError {
    ModelError::Io(format!("{format} decode: {what}"))
}

/// [`malformed`]: `want` bytes asked for with `left` remaining.
#[cold]
#[inline(never)]
fn truncated(format: &str, want: usize, left: usize) -> ModelError {
    malformed(
        format,
        format_args!("truncated (want {want} bytes, {left} left)"),
    )
}

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// An unsigned LEB128 varint ([`Reader::uvarint`]): 1 byte below 2⁷,
/// 2 below 2¹⁴, …, 10 for the top bit.
#[inline]
pub(crate) fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A float as its bit pattern.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A length or element count. Every format caps these at `u32`; a value
/// past it can only sit in a payload that is itself past the cap, which
/// the framing layer ([`crate::spill::RunWriter::write`]) refuses.
pub(crate) fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

/// A length-prefixed UTF-8 string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Whatever `body` appends, behind its `u32` byte length — written in
/// place and patched afterwards, so no temporary buffer is built.
pub(crate) fn put_len_prefixed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}
