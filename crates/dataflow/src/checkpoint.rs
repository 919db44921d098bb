//! Variable checkpointing: save and restore a session's trained state.
//!
//! The format is a small self-describing binary container (magic,
//! version, a flags word, one record per variable — name, shape, raw f32
//! data — and a trailing FNV-1a checksum, little-endian throughout). No
//! external serialization crate is needed and files are portable across
//! runs of the same model topology.
//!
//! Version 3 adds an optional **resume section** behind a flags bit:
//! session RNG state, the completed-run counter, a data-pipeline
//! [`TrainCursor`], every optimizer slot, and an opaque pipeline blob
//! supplied by the workload. Together with the variables this is the full
//! state of a training run, so a process killed mid-run restarts from the
//! last snapshot and produces bitwise-identical losses from there on.
//! Version 2 files (variables only) still load.
//!
//! Every writer goes through one encoder. [`save`] and [`save_resume`]
//! encode straight from a live session; [`ResumeImage::capture`] copies
//! the session's state (sharing the pipeline blob's parts) so that
//! [`ResumeImage::write`] can encode the same bytes later, on another
//! thread, while training continues.
//!
//! Loading is all or nothing: every variable and optimizer-slot record
//! is matched against the session by name and shape before the first
//! assignment, so a load that fails leaves the session as it was.
//!
//! Flag bits this build does not understand are a *forward*-compatibility
//! problem, not corruption, and surface as the typed
//! [`CheckpointError::UnsupportedVersion`] — callers can tell "newer
//! writer" apart from "damaged bytes" ([`CheckpointError::Corrupt`]).
//! Bit `0x4` once marked a quantization-calibration section that no
//! reader uses any more; it is unknown again, like any other bit.
//!
//! Durability: [`save_to_path`] is crash-consistent. It writes to a
//! temporary file in the same directory, fsyncs it, re-reads and
//! verifies the bytes, then atomically renames over the destination and
//! fsyncs the parent directory. A crash at any point leaves either the
//! old checkpoint or the new one, never a torn file.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use fathom_tensor::{Shape, Tensor};

use crate::exec::Session;
use crate::graph::NodeId;

const MAGIC: &[u8; 8] = b"FATHOMCK";
const VERSION: u32 = 3;

/// The variables section is present (always set by this writer).
const FLAG_VARS: u32 = 1;
/// A resume section follows the variables.
const FLAG_RESUME: u32 = 2;
/// Every flag bit this build knows how to read.
const KNOWN_FLAGS: u32 = FLAG_VARS | FLAG_RESUME;

/// Caps on self-described sizes. A corrupt length field must fail with a
/// typed error before it can drive a pathological allocation.
const MAX_VARIABLES: u64 = 1 << 20;
const MAX_NAME_LEN: u64 = 1 << 12;
const MAX_RANK: u64 = 16;
const MAX_ELEMENTS: u64 = 1 << 28;
/// Optimizer slots per checkpoint (a few per variable in practice).
const MAX_SLOTS: u64 = 1 << 22;
/// Opaque pipeline blob size (the deepq replay buffer dominates).
const MAX_PIPELINE: u64 = 1 << 30;

/// Elements decoded per chunk while streaming tensor data (64 KiB of
/// bytes): memory for a record grows only as its bytes actually arrive.
const CHUNK_ELEMS: usize = 16 * 1024;

/// Errors produced while reading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a Fathom checkpoint (bad magic, malformed or
    /// truncated records, implausible self-described sizes).
    BadHeader(String),
    /// The payload parsed but its checksum does not match: the bytes
    /// were altered after the checkpoint was written.
    Corrupt(String),
    /// The checkpoint does not match the session's variables.
    Mismatch(String),
    /// The file is a well-formed Fathom checkpoint from a *newer* writer:
    /// either a version this build does not read or a section flag bit it
    /// does not understand. Distinct from [`CheckpointError::Corrupt`] so
    /// callers can suggest upgrading instead of discarding the snapshot.
    UnsupportedVersion(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadHeader(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::UnsupportedVersion(msg) => {
                write!(f, "unsupported checkpoint version: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Where the data pipeline stood when a resume checkpoint was taken.
///
/// The cursor is workload-defined bookkeeping (the session itself only
/// knows its run counter): `global_step` counts optimizer steps,
/// `epoch`/`position` locate the pipeline within its nominal epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainCursor {
    /// Completed optimizer steps.
    pub global_step: u64,
    /// Completed passes over the nominal epoch.
    pub epoch: u64,
    /// Batches consumed within the current epoch.
    pub position: u64,
}

/// The workload-side remainder of a resume checkpoint, returned by
/// [`load_resume`]: the cursor plus the opaque pipeline blob the
/// workload serialized at save time (corpus RNG streams, replay-buffer
/// contents, environment state, …).
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeHeader {
    /// Training-loop position at save time.
    pub cursor: TrainCursor,
    /// Opaque workload pipeline state; [`save_resume`] stores it
    /// verbatim.
    pub pipeline: Vec<u8>,
}

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty to catch the
/// single-bit flips and short writes this format defends against. Not a
/// cryptographic integrity check.
#[derive(Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn digest(self) -> u64 {
        self.0
    }
}

/// A writer that hashes every byte passing through it.
struct HashingWriter<W: Write> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter { inner, hash: Fnv64::new() }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that hashes every byte passing through it, so the trailing
/// checksum can be validated against exactly the bytes parsed.
struct HashingReader<R: Read> {
    inner: R,
    hash: Fnv64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader { inner, hash: Fnv64::new() }
    }

    fn digest(&self) -> u64 {
        self.hash.digest()
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Distinguishes a truncated checkpoint (EOF mid-record) from a real
/// I/O failure: a short read means the bytes are not a complete
/// checkpoint, which is a format problem, not a transport problem.
fn eof_is_truncation(e: io::Error) -> CheckpointError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        CheckpointError::BadHeader("truncated checkpoint: unexpected end of stream".into())
    } else {
        CheckpointError::Io(e)
    }
}

/// The name a variable is stored under: its debug name when present,
/// otherwise its node id.
fn variable_key(session: &Session, id: NodeId) -> Cow<'_, str> {
    match &session.graph().node(id).name {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(id.to_string()),
    }
}

/// Every variable of `session` as `(key, value)`, in graph order.
fn session_variables(session: &Session) -> Vec<(Cow<'_, str>, &Tensor)> {
    session
        .graph()
        .variables()
        .into_iter()
        .map(|id| {
            let value = session.variable_value(id).expect("graph variables exist");
            (variable_key(session, id), value)
        })
        .collect()
}

/// The contents of one checkpoint, borrowed. A live [`Session`] and a
/// captured [`ResumeImage`] both encode through this one shape, so
/// there is one encoder and one byte layout.
struct Parts<'a> {
    vars: Vec<(Cow<'a, str>, &'a Tensor)>,
    resume: Option<ResumeParts<'a>>,
}

/// The resume section's contents, borrowed.
struct ResumeParts<'a> {
    rng: [u64; 4],
    run_counter: u64,
    cursor: TrainCursor,
    /// Sorted by `(node index, name)`, so identical session state always
    /// serializes to identical bytes.
    slots: Vec<(NodeId, &'a str, &'a Tensor)>,
    /// The pipeline blob in parts, written as one blob: their total
    /// length, then each part in order.
    pipeline: Vec<&'a [u8]>,
}

/// Writes every variable of `session` to `w`, followed by a checksum of
/// everything written. A reader can take a `&mut` reference, so files,
/// buffers, and sockets all work.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save(session: &Session, w: impl Write) -> Result<(), CheckpointError> {
    encode(&Parts { vars: session_variables(session), resume: None }, w)
}

/// Writes a full resume checkpoint: variables plus the session RNG, run
/// counter, optimizer slots, the caller's [`TrainCursor`], and an opaque
/// pipeline blob. Restoring with [`load_resume`] continues training
/// bitwise-identically.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_resume(
    session: &Session,
    cursor: TrainCursor,
    pipeline: &[u8],
    w: impl Write,
) -> Result<(), CheckpointError> {
    let parts = Parts {
        vars: session_variables(session),
        resume: Some(ResumeParts {
            rng: session.rng_state(),
            run_counter: session.step(),
            cursor,
            slots: session.optimizer_slots(),
            pipeline: vec![pipeline],
        }),
    };
    encode(&parts, w)
}

/// A session's resume state, taken at one instant, so that it can be
/// encoded and written elsewhere — on another thread — while the session
/// trains on. [`ResumeImage::write`] produces exactly the bytes
/// [`save_resume`] would have produced at capture time.
///
/// Nothing the size of the model is copied. Variables and optimizer slots
/// are shared tensors: `Apply` writes its results into fresh buffers, so
/// the buffers an image holds are ones the next step no longer writes,
/// and they go back to the session's arena when the writer drops the
/// image. The pipeline parts are shared too.
#[derive(Debug)]
pub struct ResumeImage {
    vars: Vec<(String, Tensor)>,
    rng: [u64; 4],
    run_counter: u64,
    cursor: TrainCursor,
    slots: Vec<(NodeId, &'static str, Tensor)>,
    pipeline: Vec<Arc<[u8]>>,
}

impl ResumeImage {
    /// Captures `session`'s resume state with the caller's cursor and
    /// the workload's pipeline blob, given as the parts whose
    /// concatenation is the blob.
    pub fn capture(session: &Session, cursor: TrainCursor, pipeline: Vec<Arc<[u8]>>) -> Self {
        ResumeImage {
            vars: session_variables(session)
                .into_iter()
                .map(|(key, value)| (key.into_owned(), value.clone()))
                .collect(),
            rng: session.rng_state(),
            run_counter: session.step(),
            cursor,
            slots: session
                .optimizer_slots()
                .into_iter()
                .map(|(id, name, value)| (id, name, value.clone()))
                .collect(),
            pipeline,
        }
    }

    /// Writes the captured state as a resume checkpoint, followed by its
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write(&self, w: impl Write) -> Result<(), CheckpointError> {
        let parts = Parts {
            vars: self.vars.iter().map(|(key, value)| (Cow::Borrowed(key.as_str()), value)).collect(),
            resume: Some(ResumeParts {
                rng: self.rng,
                run_counter: self.run_counter,
                cursor: self.cursor,
                slots: self.slots.iter().map(|(id, name, value)| (*id, *name, value)).collect(),
                pipeline: self.pipeline.iter().map(|part| &part[..]).collect(),
            }),
        };
        encode(&parts, w)
    }
}

fn write_tensor(w: &mut impl Write, name: &str, value: &Tensor) -> io::Result<()> {
    write_u64(w, name.len() as u64)?;
    w.write_all(name.as_bytes())?;
    write_u64(w, value.shape().rank() as u64)?;
    for &d in value.shape().dims() {
        write_u64(w, d as u64)?;
    }
    for &v in value.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// The one checkpoint encoder: header, variables, the optional resume
/// section, then the FNV-1a checksum of everything before it.
fn encode(parts: &Parts<'_>, w: impl Write) -> Result<(), CheckpointError> {
    let mut w = HashingWriter::new(w);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    let flags = FLAG_VARS | if parts.resume.is_some() { FLAG_RESUME } else { 0 };
    write_u32(&mut w, flags)?;
    write_u64(&mut w, parts.vars.len() as u64)?;
    for (key, value) in &parts.vars {
        write_tensor(&mut w, key, value)?;
    }
    if let Some(resume) = &parts.resume {
        for word in resume.rng {
            write_u64(&mut w, word)?;
        }
        write_u64(&mut w, resume.run_counter)?;
        write_u64(&mut w, resume.cursor.global_step)?;
        write_u64(&mut w, resume.cursor.epoch)?;
        write_u64(&mut w, resume.cursor.position)?;
        write_u64(&mut w, resume.slots.len() as u64)?;
        for (id, name, value) in &resume.slots {
            write_u64(&mut w, id.index() as u64)?;
            write_tensor(&mut w, name, value)?;
        }
        let pipeline_len: usize = resume.pipeline.iter().map(|part| part.len()).sum();
        write_u64(&mut w, pipeline_len as u64)?;
        for part in &resume.pipeline {
            w.write_all(part)?;
        }
    }
    let digest = w.hash.digest();
    w.inner.write_all(&digest.to_le_bytes())?;
    w.inner.flush()?;
    Ok(())
}

/// Everything a checkpoint stream can carry.
struct Payload {
    vars: HashMap<String, Tensor>,
    resume: Option<RawResume>,
}

/// The parsed resume section, before it is applied to a session.
struct RawResume {
    rng: [u64; 4],
    run_counter: u64,
    cursor: TrainCursor,
    /// `(node index, slot name, value)` records in file order.
    slots: Vec<(u64, String, Tensor)>,
    pipeline: Vec<u8>,
}

/// Reads one `name, rank, dims, f32 data` record (the shared shape of
/// variable and optimizer-slot entries), enforcing the size caps.
fn read_tensor(r: &mut impl Read) -> Result<(String, Tensor), CheckpointError> {
    let name_len = read_u64(r).map_err(eof_is_truncation)?;
    if name_len > MAX_NAME_LEN {
        return Err(CheckpointError::BadHeader(format!(
            "implausible name length {name_len} (cap {MAX_NAME_LEN})"
        )));
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    r.read_exact(&mut name_bytes).map_err(eof_is_truncation)?;
    let name = String::from_utf8(name_bytes)
        .map_err(|_| CheckpointError::BadHeader("record name is not UTF-8".into()))?;
    let rank = read_u64(r).map_err(eof_is_truncation)?;
    if rank > MAX_RANK {
        return Err(CheckpointError::BadHeader(format!(
            "implausible rank {rank} (cap {MAX_RANK})"
        )));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    let mut elements: u64 = 1;
    for _ in 0..rank {
        let d = read_u64(r).map_err(eof_is_truncation)?;
        elements = elements.saturating_mul(d);
        if elements > MAX_ELEMENTS {
            return Err(CheckpointError::BadHeader(format!(
                "implausible tensor size (cap {MAX_ELEMENTS} elements)"
            )));
        }
        dims.push(d as usize);
    }
    let shape = Shape::new(dims);
    let total = shape.num_elements();
    // Stream the payload in chunks: memory grows with bytes actually
    // read, so a corrupt size field hits EOF before a big allocation.
    let mut data = Vec::with_capacity(total.min(CHUNK_ELEMS));
    let mut byte_buf = vec![0u8; CHUNK_ELEMS * 4];
    let mut remaining = total;
    while remaining > 0 {
        let n = remaining.min(CHUNK_ELEMS);
        let chunk = &mut byte_buf[..n * 4];
        r.read_exact(chunk).map_err(eof_is_truncation)?;
        for c in chunk.chunks_exact(4) {
            data.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
        remaining -= n;
    }
    Ok((name, Tensor::from_vec(data, shape)))
}

fn read_resume_section(r: &mut impl Read) -> Result<RawResume, CheckpointError> {
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = read_u64(r).map_err(eof_is_truncation)?;
    }
    let run_counter = read_u64(r).map_err(eof_is_truncation)?;
    let cursor = TrainCursor {
        global_step: read_u64(r).map_err(eof_is_truncation)?,
        epoch: read_u64(r).map_err(eof_is_truncation)?,
        position: read_u64(r).map_err(eof_is_truncation)?,
    };
    let slot_count = read_u64(r).map_err(eof_is_truncation)?;
    if slot_count > MAX_SLOTS {
        return Err(CheckpointError::BadHeader(format!(
            "implausible slot count {slot_count} (cap {MAX_SLOTS})"
        )));
    }
    let mut slots = Vec::with_capacity(slot_count.min(1024) as usize);
    for _ in 0..slot_count {
        let node = read_u64(r).map_err(eof_is_truncation)?;
        let (name, value) = read_tensor(r)?;
        slots.push((node, name, value));
    }
    let pipeline_len = read_u64(r).map_err(eof_is_truncation)?;
    if pipeline_len > MAX_PIPELINE {
        return Err(CheckpointError::BadHeader(format!(
            "implausible pipeline size {pipeline_len} (cap {MAX_PIPELINE})"
        )));
    }
    // Chunked like tensor data: a corrupt length hits EOF, not OOM.
    let mut pipeline = Vec::with_capacity((pipeline_len as usize).min(CHUNK_ELEMS * 4));
    let mut byte_buf = vec![0u8; CHUNK_ELEMS * 4];
    let mut remaining = pipeline_len as usize;
    while remaining > 0 {
        let n = remaining.min(byte_buf.len());
        r.read_exact(&mut byte_buf[..n]).map_err(eof_is_truncation)?;
        pipeline.extend_from_slice(&byte_buf[..n]);
        remaining -= n;
    }
    Ok(RawResume { rng, run_counter, cursor, slots, pipeline })
}

/// Parses header and sections from `r`, enforcing the size caps, then
/// validates the trailing checksum. Everything before the checksum is
/// hashed; the checksum itself is read from the raw inner stream.
fn read_payload(r: impl Read) -> Result<Payload, CheckpointError> {
    let mut r = HashingReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(eof_is_truncation)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadHeader("bad magic bytes".into()));
    }
    let version = read_u32(&mut r).map_err(eof_is_truncation)?;
    let flags = match version {
        // v2 had no flags word and always carried exactly the variables.
        2 => FLAG_VARS,
        3 => {
            let flags = read_u32(&mut r).map_err(eof_is_truncation)?;
            // Unknown bits are checked first: a newer writer may both add
            // sections and drop FLAG_VARS, and "upgrade your reader" is
            // the actionable diagnosis there, not "malformed file".
            if flags & !KNOWN_FLAGS != 0 {
                return Err(CheckpointError::UnsupportedVersion(format!(
                    "unknown section flags {:#x} (this build reads {:#x})",
                    flags & !KNOWN_FLAGS,
                    KNOWN_FLAGS
                )));
            }
            if flags & FLAG_VARS == 0 {
                return Err(CheckpointError::BadHeader("missing variables section".into()));
            }
            flags
        }
        v if v > VERSION => {
            return Err(CheckpointError::UnsupportedVersion(format!(
                "version {v} is newer than this build (reads 2..={VERSION})"
            )));
        }
        v => {
            return Err(CheckpointError::BadHeader(format!(
                "unsupported version {v} (this build reads 2..={VERSION})"
            )));
        }
    };
    let count = read_u64(&mut r).map_err(eof_is_truncation)?;
    if count > MAX_VARIABLES {
        return Err(CheckpointError::BadHeader(format!(
            "implausible variable count {count} (cap {MAX_VARIABLES})"
        )));
    }
    let mut vars: HashMap<String, Tensor> = HashMap::with_capacity(count as usize);
    for _ in 0..count {
        let (name, value) = read_tensor(&mut r)?;
        vars.insert(name, value);
    }
    let resume = if flags & FLAG_RESUME != 0 {
        Some(read_resume_section(&mut r)?)
    } else {
        None
    };
    let expected = r.digest();
    let mut tail = [0u8; 8];
    r.inner.read_exact(&mut tail).map_err(eof_is_truncation)?;
    let stored = u64::from_le_bytes(tail);
    if stored != expected {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {expected:#018x}"
        )));
    }
    Ok(Payload { vars, resume })
}

/// Structurally validates checkpoint bytes — header, records, size caps,
/// checksum — without needing a session. Returns the variable count.
///
/// # Errors
///
/// Returns [`CheckpointError::BadHeader`] for malformed or truncated
/// data and [`CheckpointError::Corrupt`] for a checksum mismatch.
pub fn verify(r: impl Read) -> Result<usize, CheckpointError> {
    Ok(read_payload(r)?.vars.len())
}

/// Restores variables saved by [`save`] into `session`, matching by
/// variable name. Every variable in the session must be present in the
/// checkpoint with an identical shape; extra checkpoint entries are an
/// error too, so topology drift is caught loudly. Every record is checked
/// before the first assignment, so a failed load changes nothing.
///
/// # Errors
///
/// Returns [`CheckpointError::BadHeader`] for foreign or truncated data
/// (a premature EOF anywhere in the stream is reported as `BadHeader`,
/// not as a raw I/O error), [`CheckpointError::Corrupt`] when the
/// trailing checksum disagrees with the bytes read,
/// [`CheckpointError::Mismatch`] when names/shapes disagree with the
/// session, or an I/O error for genuine transport failures.
pub fn load(session: &mut Session, r: impl Read) -> Result<(), CheckpointError> {
    let payload = read_payload(r)?;
    for (id, value) in match_variables(session, payload.vars)? {
        session.assign(id, value).expect("shape verified by match_variables");
    }
    Ok(())
}

/// Restores a resume checkpoint written by [`save_resume`]: variables,
/// RNG stream, run counter, and optimizer slots go back into `session`;
/// the [`TrainCursor`] and pipeline blob come back to the caller, whose
/// workload knows how to re-seat its data pipeline. Nothing is applied
/// unless the whole payload parsed, checksummed cleanly, and every
/// variable and slot record matched the session, so a failed load
/// leaves the session exactly as it was — callers should treat any error
/// as "retry an older snapshot".
///
/// # Errors
///
/// Same as [`load`], plus [`CheckpointError::BadHeader`] when the stream
/// has no resume section and [`CheckpointError::Mismatch`] when a slot
/// record does not fit the session's graph.
pub fn load_resume(session: &mut Session, r: impl Read) -> Result<ResumeHeader, CheckpointError> {
    let payload = read_payload(r)?;
    let resume = payload.resume.ok_or_else(|| {
        CheckpointError::BadHeader("checkpoint has no resume section (variables only)".into())
    })?;
    let vars = match_variables(session, payload.vars)?;
    let mut slots = Vec::with_capacity(resume.slots.len());
    for (node, name, value) in resume.slots {
        let id = u32::try_from(node).map(NodeId).map_err(|_| {
            CheckpointError::Mismatch(format!("slot node index {node} out of range"))
        })?;
        let key = session
            .check_optimizer_slot(id, &name, value.shape())
            .map_err(CheckpointError::Mismatch)?;
        slots.push((id, key, value));
    }
    for (id, value) in vars {
        session.assign(id, value).expect("shape verified by match_variables");
    }
    session.set_rng_state(resume.rng);
    session.set_run_counter(resume.run_counter);
    session.clear_optimizer_slots();
    for (id, key, value) in slots {
        session.restore_optimizer_slot(id, key, value).expect("slot verified above");
    }
    Ok(ResumeHeader { cursor: resume.cursor, pipeline: resume.pipeline })
}

/// Pairs every session variable with its checkpoint record, checking
/// names, count and shapes without assigning anything.
fn match_variables(
    session: &Session,
    mut loaded: HashMap<String, Tensor>,
) -> Result<Vec<(NodeId, Tensor)>, CheckpointError> {
    let vars = session.graph().variables();
    if vars.len() != loaded.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} variables, session has {}",
            loaded.len(),
            vars.len()
        )));
    }
    vars.into_iter()
        .map(|id| {
            let key = variable_key(session, id);
            let value = loaded.remove(&*key).ok_or_else(|| {
                CheckpointError::Mismatch(format!("variable '{key}' missing from checkpoint"))
            })?;
            let expected = session.variable_value(id).expect("graph variables exist").shape();
            if value.shape() != expected {
                return Err(CheckpointError::Mismatch(format!(
                    "variable '{key}' is {} in checkpoint but {} in session",
                    value.shape(),
                    expected
                )));
            }
            Ok((id, value))
        })
        .collect()
}

/// Crash-consistent save: writes `<path>.tmp`, fsyncs it, re-reads and
/// verifies the bytes, atomically renames over `path`, then fsyncs the
/// parent directory so the rename itself is durable.
///
/// # Errors
///
/// Returns I/O errors from any step, or the verification error if the
/// just-written bytes do not read back as a valid checkpoint.
pub fn save_to_path(session: &Session, path: &Path) -> Result<(), CheckpointError> {
    // Serialize to memory first: one write syscall instead of one per
    // f32, and no torn partial record if serialization fails.
    let mut bytes = Vec::new();
    save(session, &mut bytes)?;
    promote_atomically(&bytes, path)
}

fn promote_atomically(bytes: &[u8], path: &Path) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    // Resume verification: never promote bytes we cannot read back.
    match verify(std::io::BufReader::new(std::fs::File::open(&tmp)?)) {
        Ok(_) => {}
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(if dir.as_os_str().is_empty() { Path::new(".") } else { dir });
    }
    Ok(())
}

/// Fsyncs directory `dir`, which makes a rename inside it durable. Some
/// filesystems refuse to open directories, which is not worth failing
/// over.
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Loads the checkpoint at `path` into `session` via [`load`].
///
/// # Errors
///
/// Same as [`load`], plus the open error for a missing file.
pub fn load_from_path(session: &mut Session, path: &Path) -> Result<(), CheckpointError> {
    load(session, std::io::BufReader::new(std::fs::File::open(path)?))
}

/// Loads the resume checkpoint at `path` into `session` via
/// [`load_resume`].
///
/// # Errors
///
/// Same as [`load_resume`], plus the open error for a missing file.
pub fn load_resume_from_path(
    session: &mut Session,
    path: &Path,
) -> Result<ResumeHeader, CheckpointError> {
    load_resume(session, std::io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::graph::Graph;
    use crate::optim::Optimizer;
    use fathom_tensor::{Rng, Shape};

    fn trained_session() -> (Graph, Session, crate::graph::NodeId, crate::graph::NodeId) {
        trained_with(Optimizer::sgd(0.1))
    }

    /// `y = x·w + b` fitted for 20 steps by `opt`; returns the graph, the
    /// trained session and the `w` and `b` variables.
    fn trained_with(opt: Optimizer) -> (Graph, Session, crate::graph::NodeId, crate::graph::NodeId) {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 2));
        let t = g.placeholder("t", Shape::matrix(4, 1));
        let mut rng = Rng::seeded(3);
        let w = g.variable("w", Tensor::randn([2, 1], 0.0, 1.0, &mut rng));
        let b = g.variable("b", Tensor::zeros([1]));
        let xw = g.matmul(x, w);
        let y = g.add_op(xw, b);
        let e = g.sub(y, t);
        let sq = g.square(e);
        let loss = g.mean_all(sq);
        let train = opt.minimize_all(&mut g, loss);
        let mut s = Session::new(g.clone(), Device::cpu(1));
        let xs = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0], [4, 2]);
        let ts = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0], [4, 1]);
        for _ in 0..20 {
            s.run(&[train], &[(x, xs.clone()), (t, ts.clone())]).expect("trains");
        }
        (g, s, w, b)
    }

    /// Everything a load may write: variables, RNG, run counter, slots.
    #[allow(clippy::type_complexity)]
    fn session_state(
        s: &Session,
    ) -> (Vec<Vec<u32>>, [u64; 4], u64, Vec<(NodeId, &'static str, Vec<u32>)>) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let vars =
            s.graph().variables().into_iter().map(|id| bits(s.variable_value(id).unwrap())).collect();
        let slots = s.optimizer_slots().into_iter().map(|(id, name, t)| (id, name, bits(t))).collect();
        (vars, s.rng_state(), s.step(), slots)
    }

    #[test]
    fn save_load_round_trip() {
        let (g, trained, w, b) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");

        // A fresh session has different (initial) weights...
        let mut fresh = Session::new(g, Device::cpu(1));
        assert_ne!(fresh.variable_value(w).unwrap(), trained.variable_value(w).unwrap());
        // ...until the checkpoint is restored.
        load(&mut fresh, buf.as_slice()).expect("loads");
        assert_eq!(fresh.variable_value(w).unwrap(), trained.variable_value(w).unwrap());
        assert_eq!(fresh.variable_value(b).unwrap(), trained.variable_value(b).unwrap());
    }

    #[test]
    fn rejects_garbage() {
        let (g, _, _, _) = trained_session();
        let mut s = Session::new(g, Device::cpu(1));
        let err = load(&mut s, &b"not a checkpoint"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader(_) | CheckpointError::Io(_)));
    }

    #[test]
    fn rejects_topology_mismatch() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");

        // A different model must refuse the checkpoint.
        let mut g2 = Graph::new();
        let _v = g2.variable("other", Tensor::zeros([3]));
        let mut other = Session::new(g2, Device::cpu(1));
        let err = load(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err}");
    }

    #[test]
    fn rejects_shape_mismatch() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");

        let mut g2 = Graph::new();
        let _w = g2.variable("w", Tensor::zeros([5, 1])); // wrong shape
        let _b = g2.variable("b", Tensor::zeros([1]));
        let mut other = Session::new(g2, Device::cpu(1));
        let err = load(&mut other, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checkpoint mismatch"));
    }

    #[test]
    fn truncated_stream_is_rejected_as_bad_header() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");
        buf.truncate(buf.len() / 2);
        let (g, _, _, _) = trained_session();
        let mut s = Session::new(g, Device::cpu(1));
        let err = load(&mut s, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader(_)), "got {err}");
        assert!(err.to_string().contains("truncated"), "got {err}");
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");
        // Flip one bit in the f32 payload region (past header + name):
        // only the checksum can catch this class of corruption.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        let err = verify(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt(_) | CheckpointError::BadHeader(_)),
            "got {err}"
        );
    }

    #[test]
    fn verify_accepts_clean_bytes_and_counts_variables() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");
        assert_eq!(verify(buf.as_slice()).expect("clean checkpoint verifies"), 2);
    }

    #[test]
    fn implausible_sizes_fail_before_allocation() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");
        // Stamp a huge variable count into the header (offset 16, after
        // magic + version + flags).
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = verify(buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader(_)), "got {err}");
        assert!(err.to_string().contains("implausible"), "got {err}");
    }

    /// Builds version-2 bytes (no flags word, variables only) by hand,
    /// so the compatibility path is pinned against real legacy layout.
    fn v2_bytes(vars: &[(&str, &Tensor)]) -> Vec<u8> {
        let mut w = HashingWriter::new(Vec::new());
        w.write_all(MAGIC).unwrap();
        write_u32(&mut w, 2).unwrap();
        write_u64(&mut w, vars.len() as u64).unwrap();
        for (name, value) in vars {
            write_tensor(&mut w, name, value).unwrap();
        }
        let digest = w.hash.digest();
        let mut bytes = w.inner;
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn version_2_files_still_load() {
        let (g, trained, w, b) = trained_session();
        let legacy = v2_bytes(&[
            ("w", trained.variable_value(w).unwrap()),
            ("b", trained.variable_value(b).unwrap()),
        ]);
        assert_eq!(verify(legacy.as_slice()).expect("v2 verifies"), 2);
        let mut current = Vec::new();
        save(&trained, &mut current).expect("saves");
        // Plain v2 and v3 streams restore the same state: either one,
        // loaded and saved again, gives the v3 bytes.
        for bytes in [&current, &legacy] {
            let mut fresh = Session::new(g.clone(), Device::cpu(1));
            load(&mut fresh, bytes.as_slice()).expect("loads");
            let mut again = Vec::new();
            save(&fresh, &mut again).expect("saves again");
            assert_eq!(again, current);
        }
        let mut fresh = Session::new(g, Device::cpu(1));
        load(&mut fresh, legacy.as_slice()).expect("v2 loads");
        assert_eq!(fresh.variable_value(w).unwrap(), trained.variable_value(w).unwrap());
        // A v2 file cannot resume: it has no resume section.
        let err = load_resume(&mut fresh, legacy.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader(_)), "got {err}");
        assert!(err.to_string().contains("no resume section"), "got {err}");
    }

    #[test]
    fn future_versions_are_rejected_as_unsupported() {
        let (_, trained, _, _) = trained_session();
        let mut buf = Vec::new();
        save(&trained, &mut buf).expect("saves");
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = verify(buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion(_)), "got {err}");
        assert!(err.to_string().contains("newer than this build"), "got {err}");
        // Versions *older* than anything we ever shipped are malformed,
        // not "from the future".
        buf[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = verify(buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader(_)), "got {err}");
    }

    #[test]
    fn unknown_flag_bits_are_unsupported_not_corrupt() {
        let (g, trained, _, _) = trained_session();
        let cursor = TrainCursor { global_step: 20, epoch: 2, position: 6 };
        let (mut plain, mut resume) = (Vec::new(), Vec::new());
        save(&trained, &mut plain).expect("saves");
        save_resume(&trained, cursor, &[1, 2, 3], &mut resume).expect("saves");
        let mut fresh = Session::new(g, Device::cpu(1));
        let before = session_state(&fresh);
        // The flags word sits at offset 12 (magic + version). Set a bit
        // this build does not read: 0x4 is the retired calibration
        // section, the others were never written.
        for (buf, alien) in [&plain, &resume].into_iter().flat_map(|buf| {
            [4u32, 8, 16, 0x8000_0000].map(|alien| (buf, alien))
        }) {
            let mut bytes = buf.clone();
            let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) | alien;
            bytes[12..16].copy_from_slice(&flags.to_le_bytes());
            for err in [
                verify(bytes.as_slice()).unwrap_err(),
                load(&mut fresh, bytes.as_slice()).unwrap_err(),
                load_resume(&mut fresh, bytes.as_slice()).unwrap_err(),
            ] {
                assert!(
                    matches!(err, CheckpointError::UnsupportedVersion(_)),
                    "flag {alien:#x}: got {err}"
                );
                let named = format!("unknown section flags {alien:#x} ");
                assert!(err.to_string().contains(&named), "got {err}");
            }
            assert_eq!(session_state(&fresh), before, "a refused stream must change nothing");
        }
    }

    #[test]
    fn a_shape_mismatch_on_the_last_variable_leaves_every_variable_unchanged() {
        let (_, trained, _, _) = trained_session();
        let cursor = TrainCursor { global_step: 20, epoch: 2, position: 6 };
        let (mut plain, mut resume) = (Vec::new(), Vec::new());
        save(&trained, &mut plain).expect("saves");
        save_resume(&trained, cursor, &[], &mut resume).expect("saves");
        // `w` matches the checkpoint; `b`, restored after it, does not.
        let mut g = Graph::new();
        let _w = g.variable("w", Tensor::filled([2, 1], 0.25));
        let _b = g.variable("b", Tensor::zeros([3]));
        let mut other = Session::new(g, Device::cpu(1));
        let before = session_state(&other);
        let err = load(&mut other, plain.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err}");
        assert!(err.to_string().contains("'b'"), "got {err}");
        assert_eq!(session_state(&other), before, "load must not half-restore");
        let err = load_resume(&mut other, resume.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err}");
        assert_eq!(session_state(&other), before, "load_resume must not half-restore");
    }

    #[test]
    fn a_foreign_slot_record_leaves_variables_rng_run_counter_and_slots_unchanged() {
        // The same graph trained by two optimizers: the variables match,
        // but momentum's slot records are foreign to an Adam session.
        let (_, momentum, _, _) = trained_with(Optimizer::momentum(0.1));
        let (_, mut adam, _, _) = trained_with(Optimizer::adam(0.1));
        adam.set_rng_state([5, 6, 7, 8]);
        let cursor = TrainCursor { global_step: 20, epoch: 2, position: 6 };
        let mut buf = Vec::new();
        save_resume(&momentum, cursor, &[4, 2], &mut buf).expect("saves");
        let before = session_state(&adam);
        assert!(!before.3.is_empty(), "the Adam session holds slots to lose");
        assert_ne!(before.0, session_state(&momentum).0, "the variables must differ to show a write");
        let err = load_resume(&mut adam, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err}");
        assert!(err.to_string().contains("momentum"), "got {err}");
        assert_eq!(session_state(&adam), before, "a failed resume must change nothing");
    }

    #[test]
    fn resume_round_trip_restores_full_session_state() {
        let (g, mut trained, w, _) = trained_session();
        let cursor = TrainCursor { global_step: 20, epoch: 2, position: 6 };
        let pipeline = vec![7u8, 0, 255, 3];
        let mut buf = Vec::new();
        save_resume(&trained, cursor, &pipeline, &mut buf).expect("saves");

        let mut fresh = Session::new(g, Device::cpu(1));
        let header = load_resume(&mut fresh, buf.as_slice()).expect("resumes");
        assert_eq!(header.cursor, cursor);
        assert_eq!(header.pipeline, pipeline);
        assert_eq!(fresh.step(), trained.step());
        assert_eq!(fresh.rng_state(), trained.rng_state());
        assert_eq!(fresh.variable_value(w).unwrap(), trained.variable_value(w).unwrap());
        // Saving the restored session reproduces the bytes exactly: the
        // format is canonical, so save -> load -> save is the identity.
        let mut again = Vec::new();
        save_resume(&fresh, cursor, &pipeline, &mut again).expect("saves again");
        assert_eq!(buf, again, "resume checkpoints must be byte-stable");
        // And the restored session trains on identically: slots included.
        let (ids, feeds) = {
            let x = trained.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
            let t = trained.graph().iter().find(|(_, n)| n.name.as_deref() == Some("t")).unwrap().0;
            let train = crate::graph::NodeId((trained.graph().len() - 1) as u32);
            (
                train,
                vec![
                    (x, Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0], [4, 2])),
                    (t, Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0], [4, 1])),
                ],
            )
        };
        trained.run(&[ids], &feeds).unwrap();
        fresh.run(&[ids], &feeds).unwrap();
        assert_eq!(
            trained.variable_value(w).unwrap(),
            fresh.variable_value(w).unwrap(),
            "post-resume trajectories must agree bitwise"
        );
    }

    #[test]
    fn a_captured_image_writes_the_bytes_save_resume_writes_at_capture() {
        let (_, mut trained, w, _) = trained_session();
        let cursor = TrainCursor { global_step: 20, epoch: 2, position: 6 };
        let parts: Vec<Arc<[u8]>> =
            vec![Arc::from(&b"head"[..]), Arc::from(&b""[..]), Arc::from(&[0u8, 255, 7][..])];
        let mut direct = Vec::new();
        save_resume(&trained, cursor, &parts.concat(), &mut direct).expect("saves");
        let image = ResumeImage::capture(&trained, cursor, parts);
        // The image is a copy: the session moving on does not reach it.
        trained.set_rng_state([9; 4]);
        trained.set_run_counter(999);
        trained.assign(w, Tensor::filled([2, 1], 0.5)).unwrap();
        let mut imaged = Vec::new();
        image.write(&mut imaged).expect("writes");
        assert_eq!(direct, imaged);
    }

    #[test]
    fn resume_section_is_checksummed_too() {
        let (_, trained, _, _) = trained_session();
        let cursor = TrainCursor { global_step: 1, epoch: 0, position: 1 };
        let mut buf = Vec::new();
        save_resume(&trained, cursor, &[1, 2, 3, 4, 5, 6, 7, 8], &mut buf).expect("saves");
        // Flip a bit inside the resume section (a pipeline byte near the
        // tail, before the 8-byte checksum).
        let idx = buf.len() - 12;
        buf[idx] ^= 0x01;
        let err = verify(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt(_) | CheckpointError::BadHeader(_)),
            "got {err}"
        );
    }

    #[test]
    fn resume_truncation_at_every_boundary_is_typed() {
        let (g, trained, _, _) = trained_session();
        let cursor = TrainCursor { global_step: 3, epoch: 1, position: 0 };
        let mut buf = Vec::new();
        save_resume(&trained, cursor, &[9u8; 33], &mut buf).expect("saves");
        for keep in [0, 1, 8, 12, 16, buf.len() / 2, buf.len() - 9, buf.len() - 1] {
            let mut s = Session::new(g.clone(), Device::cpu(1));
            let err = load_resume(&mut s, &buf[..keep]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::BadHeader(_)),
                "keep={keep}: got {err}"
            );
        }
    }

    #[test]
    fn save_to_path_round_trips_and_replaces_atomically() {
        let (g, trained, w, _) = trained_session();
        let dir = std::env::temp_dir().join(format!("fathom-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.ckpt");
        save_to_path(&trained, &path).expect("first save");
        // Overwrite with the same state: must go through the tmp+rename
        // path without leaving the .tmp file behind.
        save_to_path(&trained, &path).expect("second save");
        assert!(!path.with_extension("tmp").exists(), "tmp file must be cleaned up");
        let mut fresh = Session::new(g, Device::cpu(1));
        load_from_path(&mut fresh, &path).expect("loads");
        assert_eq!(fresh.variable_value(w).unwrap(), trained.variable_value(w).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
