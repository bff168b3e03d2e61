//! WAL record framing and the record grammar.
//!
//! Every record on disk is `len: u32 | crc: u32 | payload`, where `len` is
//! the payload byte length and `crc` is CRC-32 (IEEE) over the payload.
//! The payload opens with a one-byte tag:
//!
//! | tag | record     | body                                        |
//! |-----|------------|---------------------------------------------|
//! | 1   | `Snapshot` | slot-exact graph image (`graph::delta`)     |
//! | 2   | `Delta`    | slot-level [`GraphDelta`] op list           |
//! | 3   | `Commit`   | `epoch: u64, graph_fp: u64`                 |
//! | 4   | `Catalog`  | newly interned strings ([`CatalogDelta`])   |
//! | 5   | `Stats`    | the epoch's [`StatsCatalog`]                |
//! | 6   | `Model`    | finetuned-model JSON (UTF-8)                |
//! | 7   | `Pad`      | zeros, aligning the append cursor to a page |
//!
//! `Snapshot`/`Delta`/`Catalog`/`Stats` records are *staged*: they take
//! effect only when sealed by the following `Commit`, whose `graph_fp` must
//! match the fingerprint of the staged graph. `Model` and `Pad` are
//! standalone-durable, and only legal at a group boundary — a scanner that
//! sees one while records are staged treats the file as corrupt from there.

use crate::catalog::CatalogDelta;
use crate::codec::{put_u64, CodecError, Reader};
use chatgraph_graph::stats::StatsCatalog;
use chatgraph_support::hash::crc32;

/// Framing overhead per record: the `len` and `crc` words.
pub const FRAME_BYTES: usize = 8;
/// Upper bound on a single payload; anything larger is treated as a corrupt
/// length word, not an allocation request.
pub const MAX_PAYLOAD: u32 = 1 << 30;

const TAG_SNAPSHOT: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_CATALOG: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_MODEL: u8 = 6;
const TAG_PAD: u8 = 7;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A full slot-exact graph image (staged).
    Snapshot {
        /// `chatgraph_graph::delta::image_to_bytes` output.
        image: Vec<u8>,
    },
    /// A slot-level delta against the previous committed graph (staged).
    Delta {
        /// `GraphDelta::to_bytes` output.
        ops: Vec<u8>,
    },
    /// Seals the staged records into epoch `epoch`.
    Commit {
        /// The store epoch this commit produces.
        epoch: u64,
        /// `Graph::fingerprint` of the committed graph (FNV-1a 64 over its
        /// slot-exact image bytes).
        graph_fp: u64,
    },
    /// Newly interned catalog strings (staged).
    Catalog {
        /// The appended entries.
        delta: CatalogDelta,
    },
    /// The committed epoch's statistics (staged).
    Stats {
        /// The statistics catalog.
        stats: StatsCatalog,
    },
    /// The finetuned model (standalone-durable).
    Model {
        /// Model JSON.
        json: String,
    },
    /// Page-alignment filler (standalone-durable, ignored on replay).
    Pad {
        /// Number of zero filler bytes after the tag.
        zeros: usize,
    },
}

impl WalRecord {
    /// Appends the framed record (`len | crc | payload`) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        match self {
            WalRecord::Snapshot { image } => {
                payload.push(TAG_SNAPSHOT);
                payload.extend_from_slice(image);
            }
            WalRecord::Delta { ops } => {
                payload.push(TAG_DELTA);
                payload.extend_from_slice(ops);
            }
            WalRecord::Commit { epoch, graph_fp } => {
                payload.push(TAG_COMMIT);
                put_u64(&mut payload, *epoch);
                put_u64(&mut payload, *graph_fp);
            }
            WalRecord::Catalog { delta } => {
                payload.push(TAG_CATALOG);
                payload.extend_from_slice(&delta.to_bytes());
            }
            WalRecord::Stats { stats } => {
                payload.push(TAG_STATS);
                crate::codec::put_stats(&mut payload, stats);
            }
            WalRecord::Model { json } => {
                payload.push(TAG_MODEL);
                payload.extend_from_slice(json.as_bytes());
            }
            WalRecord::Pad { zeros } => {
                payload.push(TAG_PAD);
                payload.resize(payload.len() + zeros, 0);
            }
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Decodes one payload (tag + body). The framing (`len`, `crc`) must
    /// already have been validated by the caller.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let record = match tag {
            TAG_SNAPSHOT => WalRecord::Snapshot { image: r.take(r.remaining())?.to_vec() },
            TAG_DELTA => WalRecord::Delta { ops: r.take(r.remaining())?.to_vec() },
            TAG_COMMIT => WalRecord::Commit { epoch: r.u64()?, graph_fp: r.u64()? },
            TAG_CATALOG => WalRecord::Catalog { delta: CatalogDelta::decode(&mut r)? },
            TAG_STATS => WalRecord::Stats { stats: crate::codec::get_stats(&mut r)? },
            TAG_MODEL => {
                let bytes = r.take(r.remaining())?;
                let json =
                    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)?;
                WalRecord::Model { json }
            }
            TAG_PAD => {
                let zeros = r.take(r.remaining())?;
                if zeros.iter().any(|&b| b != 0) {
                    return Err(CodecError::BadTag(TAG_PAD));
                }
                WalRecord::Pad { zeros: zeros.len() }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        if !r.done() {
            return Err(CodecError::Truncated);
        }
        Ok(record)
    }
}

/// One framed record scanned out of a byte run.
pub struct Framed {
    /// The decoded record.
    pub record: WalRecord,
    /// Total on-disk bytes (frame + payload).
    pub len: usize,
}

/// Why a scan stopped at some offset. Everything except `End` marks the
/// start of the torn/corrupt tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanStop {
    /// Clean end of the byte run.
    End,
    /// Fewer than [`FRAME_BYTES`] bytes remain — a torn frame header.
    TornFrame,
    /// The length word runs past the end of the run (torn payload) or past
    /// [`MAX_PAYLOAD`] (corrupt length).
    BadLength,
    /// The payload fails its CRC.
    BadChecksum,
    /// The payload decoded to garbage.
    BadPayload(CodecError),
}

/// Reads the next framed record at `data[pos..]`.
pub fn next_record(data: &[u8], pos: usize) -> Result<Framed, ScanStop> {
    let remaining = data.len() - pos;
    if remaining == 0 {
        return Err(ScanStop::End);
    }
    if remaining < FRAME_BYTES {
        return Err(ScanStop::TornFrame);
    }
    let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    if len == 0 || len > MAX_PAYLOAD || (len as usize) > remaining - FRAME_BYTES {
        return Err(ScanStop::BadLength);
    }
    let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
    let payload = &data[pos + FRAME_BYTES..pos + FRAME_BYTES + len as usize];
    if crc32(payload) != crc {
        return Err(ScanStop::BadChecksum);
    }
    let record = WalRecord::decode(payload).map_err(ScanStop::BadPayload)?;
    Ok(Framed { record, len: FRAME_BYTES + len as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Snapshot { image: vec![1, 2, 3, 4] },
            WalRecord::Delta { ops: vec![9, 9] },
            WalRecord::Commit { epoch: 7, graph_fp: 0xDEAD_BEEF },
            WalRecord::Catalog {
                delta: CatalogDelta {
                    node_labels: vec!["C".into()],
                    edge_labels: vec![],
                    prop_keys: vec!["w".into()],
                },
            },
            WalRecord::Model { json: "{\"weights\":[]}".into() },
            WalRecord::Pad { zeros: 17 },
        ]
    }

    #[test]
    fn records_roundtrip_through_framing() {
        let records = sample_records();
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut pos = 0;
        let mut seen = Vec::new();
        loop {
            match next_record(&buf, pos) {
                Ok(f) => {
                    pos += f.len;
                    seen.push(f.record);
                }
                Err(ScanStop::End) => break,
                Err(stop) => panic!("unexpected stop: {stop:?}"),
            }
        }
        assert_eq!(seen, records);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn every_truncation_point_stops_the_scan_cleanly() {
        let mut buf = Vec::new();
        for r in sample_records() {
            r.encode(&mut buf);
        }
        for cut in 0..buf.len() {
            let data = &buf[..cut];
            let mut pos = 0;
            // Scan to the stop; it must never panic and never read past
            // the cut.
            loop {
                match next_record(data, pos) {
                    Ok(f) => pos = pos + f.len,
                    Err(_) => break,
                }
            }
            assert!(pos <= cut);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut buf = Vec::new();
        WalRecord::Commit { epoch: 3, graph_fp: 42 }.encode(&mut buf);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                match next_record(&corrupt, 0) {
                    Ok(f) => panic!(
                        "flip at {byte}:{bit} yielded a record: {:?}",
                        f.record
                    ),
                    Err(ScanStop::End) => panic!("flip at {byte}:{bit} ended scan"),
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn zero_and_oversized_lengths_are_bad_frames() {
        let mut buf = vec![0u8; 16];
        assert_eq!(next_record(&buf, 0).err(), Some(ScanStop::BadLength));
        buf[0..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(next_record(&buf, 0).err(), Some(ScanStop::BadLength));
    }

    #[test]
    fn nonzero_pad_bytes_are_rejected() {
        let mut buf = Vec::new();
        WalRecord::Pad { zeros: 8 }.encode(&mut buf);
        let payload_at = FRAME_BYTES + 1; // first zero byte
        buf[payload_at + 3] = 0xFF;
        // Re-stamp a valid CRC so only the pad-content check can reject it.
        let payload = buf[FRAME_BYTES..].to_vec();
        let crc = chatgraph_support::hash::crc32(&payload);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            next_record(&buf, 0),
            Err(ScanStop::BadPayload(CodecError::BadTag(_)))
        ));
    }
}
