//! Slotted pages: the byte-level layout of one fixed-size disk page.
//!
//! Two page kinds share the [`PAGE_SIZE`] frame:
//!
//! * **Data pages** hold records in the classic slotted layout: a small
//!   header, a slot directory growing forward from the header, and record
//!   payloads growing backward from the end of the page. Each slot is
//!   either *inline* (offset + length of an encoded record within this
//!   page) or an *overflow reference* (first overflow page id + total
//!   byte length) for records too large to inline.
//! * **Overflow pages** hold one chunk of an oversized record's bytes
//!   plus the id of the next page in the chain (`NO_PAGE` terminates).
//!
//! All accessors validate offsets against the buffer and return
//! [`ModelError::Io`] on malformed bytes — a corrupted or truncated page
//! surfaces as an error, never a panic or out-of-bounds read.

use tmql_model::{ModelError, Result};

/// Size of one page in bytes. 8 KiB balances slot overhead against
/// read amplification for the small complex-object records the TM
/// workloads store.
pub(crate) const PAGE_SIZE: usize = 8192;

/// Page identifier: an offset into the database file in [`PAGE_SIZE`]
/// units. Page 0 is the file header and is never handed out, so 0 doubles
/// as the null sentinel [`NO_PAGE`].
pub(crate) type PageId = u32;

/// Null page id (the header page is never referenced as data).
pub(crate) const NO_PAGE: PageId = 0;

/// Page-kind tag of a data (slotted) page.
pub(crate) const KIND_DATA: u8 = 1;
/// Page-kind tag of an overflow (record continuation) page.
pub(crate) const KIND_OVERFLOW: u8 = 2;

/// Data-page header: kind (1) + pad (1) + slot count (2) + free offset (2).
const DATA_HDR: usize = 6;
/// One slot directory entry: payload offset (2) + flags/length (2).
const SLOT_BYTES: usize = 4;
/// Overflow-page header: kind (1) + pad (1) + next page (4) + length (2).
const OVF_HDR: usize = 8;
/// High bit of a slot's length word marks an overflow reference.
const OVERFLOW_FLAG: u16 = 0x8000;
/// Byte size of an overflow reference payload: first page (4) + total (4).
const OVF_REF_BYTES: usize = 8;

/// Largest record payload that can be stored inline in a data page slot
/// (bounded by the 15 length bits and by what fits next to the header and
/// one slot).
pub(crate) const MAX_INLINE: usize = PAGE_SIZE - DATA_HDR - SLOT_BYTES;

/// Byte capacity of one overflow page.
pub(crate) const OVF_CAPACITY: usize = PAGE_SIZE - OVF_HDR;

const _: () = assert!(MAX_INLINE < OVERFLOW_FLAG as usize, "length fits 15 bits");

fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn corrupt(what: &str) -> ModelError {
    ModelError::Io(format!("corrupted page: {what}"))
}

/// The page-kind tag (first byte).
pub fn kind(buf: &[u8]) -> u8 {
    buf[0]
}

// ---------------------------------------------------------------------------
// Data pages
// ---------------------------------------------------------------------------

/// Initialize `buf` as an empty data page.
pub(crate) fn init_data(buf: &mut [u8]) {
    buf[..DATA_HDR].fill(0);
    buf[0] = KIND_DATA;
    put_u16(buf, 4, PAGE_SIZE as u16); // free offset: payloads grow down
}

/// Number of slots in a data page.
pub(crate) fn slot_count(buf: &[u8]) -> usize {
    get_u16(buf, 2) as usize
}

fn free_off(buf: &[u8]) -> usize {
    let off = get_u16(buf, 4) as usize;
    // A fresh page stores PAGE_SIZE, which wraps to 0 in u16 only if
    // PAGE_SIZE were 65536; at 8192 the raw value is exact.
    off
}

/// Free bytes between the slot directory and the payload region.
pub(crate) fn free_space(buf: &[u8]) -> usize {
    free_off(buf).saturating_sub(DATA_HDR + SLOT_BYTES * slot_count(buf))
}

/// True iff an inline payload of `len` bytes (plus its slot) fits.
pub(crate) fn fits_inline(buf: &[u8], len: usize) -> bool {
    len <= MAX_INLINE && free_space(buf) >= len + SLOT_BYTES
}

/// True iff an overflow reference (plus its slot) fits.
pub(crate) fn fits_overflow_ref(buf: &[u8]) -> bool {
    free_space(buf) >= OVF_REF_BYTES + SLOT_BYTES
}

fn push_slot(buf: &mut [u8], payload: &[u8], flags: u16) {
    let n = slot_count(buf);
    let off = free_off(buf) - payload.len();
    buf[off..off + payload.len()].copy_from_slice(payload);
    put_u16(buf, DATA_HDR + SLOT_BYTES * n, off as u16);
    put_u16(
        buf,
        DATA_HDR + SLOT_BYTES * n + 2,
        payload.len() as u16 | flags,
    );
    put_u16(buf, 2, (n + 1) as u16);
    put_u16(buf, 4, off as u16);
}

/// Append an inline record payload. The caller must have checked
/// [`fits_inline`].
pub(crate) fn push_inline(buf: &mut [u8], payload: &[u8]) {
    debug_assert!(fits_inline(buf, payload.len()));
    push_slot(buf, payload, 0);
}

/// Append an overflow reference to a record of `total` bytes whose chain
/// starts at `first`. The caller must have checked [`fits_overflow_ref`].
pub(crate) fn push_overflow_ref(buf: &mut [u8], first: PageId, total: u32) {
    debug_assert!(fits_overflow_ref(buf));
    let mut payload = [0u8; OVF_REF_BYTES];
    payload[..4].copy_from_slice(&first.to_le_bytes());
    payload[4..].copy_from_slice(&total.to_le_bytes());
    push_slot(buf, &payload, OVERFLOW_FLAG);
}

/// One resolved slot of a data page.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SlotRef<'a> {
    /// The record's encoded bytes live inline in this page.
    Inline(&'a [u8]),
    /// The record's bytes live in an overflow chain.
    Overflow {
        /// First overflow page of the chain.
        first: PageId,
        /// Total byte length across the chain.
        total: u32,
    },
}

/// Resolve slot `i` of a data page, validating every offset.
pub fn slot(buf: &[u8], i: usize) -> Result<SlotRef<'_>> {
    if kind(buf) != KIND_DATA {
        return Err(corrupt("expected a data page"));
    }
    if i >= slot_count(buf) {
        return Err(corrupt("slot index out of range"));
    }
    let off = get_u16(buf, DATA_HDR + SLOT_BYTES * i) as usize;
    let lenflags = get_u16(buf, DATA_HDR + SLOT_BYTES * i + 2);
    let len = (lenflags & !OVERFLOW_FLAG) as usize;
    // Payloads live past the slot directory: an offset inside it would
    // alias directory entries as record bytes.
    if off + len > PAGE_SIZE || off < DATA_HDR + SLOT_BYTES * slot_count(buf) {
        return Err(corrupt("slot payload out of bounds"));
    }
    let payload = &buf[off..off + len];
    if lenflags & OVERFLOW_FLAG == 0 {
        return Ok(SlotRef::Inline(payload));
    }
    if len != OVF_REF_BYTES {
        return Err(corrupt("malformed overflow reference"));
    }
    Ok(SlotRef::Overflow {
        first: get_u32(payload, 0),
        total: get_u32(payload, 4),
    })
}

// ---------------------------------------------------------------------------
// Overflow pages
// ---------------------------------------------------------------------------

/// Initialize `buf` as an overflow page holding `data`, chaining to `next`.
pub(crate) fn init_overflow(buf: &mut [u8], next: PageId, data: &[u8]) {
    debug_assert!(data.len() <= OVF_CAPACITY);
    buf[..OVF_HDR].fill(0);
    buf[0] = KIND_OVERFLOW;
    put_u32(buf, 2, next);
    put_u16(buf, 6, data.len() as u16);
    buf[OVF_HDR..OVF_HDR + data.len()].copy_from_slice(data);
}

/// The next page in an overflow chain ([`NO_PAGE`] terminates).
pub(crate) fn ovf_next(buf: &[u8]) -> Result<PageId> {
    if kind(buf) != KIND_OVERFLOW {
        return Err(corrupt("expected an overflow page"));
    }
    Ok(get_u32(buf, 2))
}

/// The byte chunk stored in an overflow page.
pub(crate) fn ovf_data(buf: &[u8]) -> Result<&[u8]> {
    if kind(buf) != KIND_OVERFLOW {
        return Err(corrupt("expected an overflow page"));
    }
    let len = get_u16(buf, 6) as usize;
    if OVF_HDR + len > PAGE_SIZE {
        return Err(corrupt("overflow chunk out of bounds"));
    }
    Ok(&buf[OVF_HDR..OVF_HDR + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_slots_round_trip() {
        let mut buf = vec![0u8; PAGE_SIZE];
        init_data(&mut buf);
        assert_eq!(slot_count(&buf), 0);
        push_inline(&mut buf, b"hello");
        push_inline(&mut buf, b"world!");
        assert_eq!(slot_count(&buf), 2);
        assert_eq!(slot(&buf, 0).unwrap(), SlotRef::Inline(b"hello"));
        assert_eq!(slot(&buf, 1).unwrap(), SlotRef::Inline(b"world!"));
        assert!(slot(&buf, 2).is_err(), "out-of-range slot is an error");
    }

    #[test]
    fn page_fills_up_and_reports_it() {
        let mut buf = vec![0u8; PAGE_SIZE];
        init_data(&mut buf);
        let payload = vec![7u8; 1000];
        let mut pushed = 0;
        while fits_inline(&buf, payload.len()) {
            push_inline(&mut buf, &payload);
            pushed += 1;
        }
        assert_eq!(pushed, 8, "8 × (1000 + 4 slot bytes) fit in 8 KiB");
        assert!(!fits_inline(&buf, payload.len()));
        assert!(fits_inline(&buf, 16), "small records still fit");
    }

    #[test]
    fn overflow_refs_round_trip() {
        let mut buf = vec![0u8; PAGE_SIZE];
        init_data(&mut buf);
        push_overflow_ref(&mut buf, 42, 100_000);
        assert_eq!(
            slot(&buf, 0).unwrap(),
            SlotRef::Overflow {
                first: 42,
                total: 100_000
            }
        );
    }

    #[test]
    fn overflow_pages_round_trip() {
        let mut buf = vec![0u8; PAGE_SIZE];
        init_overflow(&mut buf, 9, b"chunk");
        assert_eq!(ovf_next(&buf).unwrap(), 9);
        assert_eq!(ovf_data(&buf).unwrap(), b"chunk");
    }

    #[test]
    fn corrupted_pages_error_not_panic() {
        let zeroed = vec![0u8; PAGE_SIZE];
        assert!(slot(&zeroed, 0).is_err(), "kind 0 is not a data page");
        assert!(ovf_next(&zeroed).is_err());

        let mut buf = vec![0u8; PAGE_SIZE];
        init_data(&mut buf);
        push_inline(&mut buf, b"ok");
        // Scribble the slot offset out of bounds.
        put_u16(&mut buf, 6, 0xFFFF);
        assert!(matches!(slot(&buf, 0), Err(ModelError::Io(_))));
        // ... and into the slot directory itself.
        put_u16(&mut buf, 6, DATA_HDR as u16);
        assert!(matches!(slot(&buf, 0), Err(ModelError::Io(_))));
    }
}
