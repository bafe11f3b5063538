//! Every raw file write, fsync and rename of the durable stores (the WAL,
//! the extent engine, the MANIFEST), with the durability order in the
//! types (DESIGN.md §11, §13): a write returns an [`Unsynced`] that the
//! crate may not drop (`#![deny(unused_must_use)]`), only
//! [`Unsynced::sync`] makes the [`Synced`] an ack path returns, an extent
//! header needs its payload's [`PayloadWritten`], and [`Dir::create`] and
//! [`Dir::replace_atomically`] (the only rename) fsync the directory. A
//! [`Dir`] opened with `sync` off keeps the order and skips the fsyncs.
//! Every call fails only with an [`Error::Io`] that names the file.
//!
//! A `Dir` made by `Dir::recording` (the crash simulator's) also pushes
//! one [`Event`] per raw operation, its own and its files', to a
//! [`Recorder`]; every other `Dir` records and copies nothing.

use crate::sync::Mutex;
use ear_types::{Error, Result};
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::ops::Deref;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn io_err<'a>(what: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> Error + 'a {
    move |e| Error::Io {
        context: format!("{what} {}: {e}", path.display()),
    }
}

/// Bytes written to a file but not yet on stable storage.
///
/// An acknowledging path returns a [`Synced`], and only `sync` makes one:
///
/// ```
/// # use ear_cluster::durable::{File, Synced};
/// fn save(file: &File, record: &[u8]) -> ear_types::Result<Synced> {
///     let written = file.append(record)?;
///     written.sync()
/// }
/// ```
///
/// so a write acknowledged without one does not compile:
///
/// ```compile_fail
/// # use ear_cluster::durable::{File, Synced};
/// fn save(file: &File, record: &[u8]) -> ear_types::Result<Synced> {
///     let written = file.append(record)?;
///     Ok(written)
/// }
/// ```
#[must_use = "a write is durable only once synced"]
#[derive(Debug)]
pub struct Unsynced<'f>(&'f File);

impl Unsynced<'_> {
    /// Flushes the file's data (a no-op in a directory opened without
    /// sync): from here on the bytes survive a power loss.
    pub fn sync(self) -> Result<Synced> {
        if self.0.sync {
            #[expect(clippy::disallowed_methods, reason = "the one data fsync")]
            self.0.file.sync_data().map_err(io_err("fsync", &self.0.path))?;
        }
        self.0.record(|file| Event::Sync { file });
        Ok(Synced(()))
    }
}

/// Proof that the bytes written so far are on stable storage.
#[derive(Debug)]
pub struct Synced(());

/// Proof that an extent's payload is written: the one key to its header.
///
/// ```
/// # use ear_cluster::durable::{File, Synced};
/// fn commit(file: &File, header: &[u8], payload: &[u8]) -> ear_types::Result<Synced> {
///     let written = file.write_payload(64, payload)?;
///     file.write_header(0, header, written)?.sync()
/// }
/// ```
///
/// A header over a payload written any other way does not compile:
///
/// ```compile_fail
/// # use ear_cluster::durable::{File, Synced};
/// fn commit(file: &File, header: &[u8], payload: &[u8]) -> ear_types::Result<Synced> {
///     let written = file.write_at(64, payload)?;
///     file.write_header(0, header, written)?.sync()
/// }
/// ```
#[must_use = "an extent is committed only once its header is written"]
#[derive(Debug)]
pub struct PayloadWritten(());

/// One raw operation of a recording [`Dir`] or of a file opened from it.
/// `file` numbers files in the order their names first appear, so a
/// rename moves a file's contents, not just its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    /// `name` came to hold a new, empty file.
    Create { file: usize, name: String },
    /// `bytes` were written at `off`: an append, a positioned write, a
    /// payload or a header.
    Write { file: usize, off: u64, bytes: Vec<u8> },
    /// The file was cut or extended to `len` bytes.
    Resize { file: usize, len: u64 },
    /// The file's data fsync.
    Sync { file: usize },
    /// The file was renamed to `to`, replacing whatever `to` held.
    Rename { file: usize, to: String },
    /// The directory's fsync: every create and rename before it persists.
    SyncDir,
}

/// The event stream of a recording [`Dir`], shared with its files.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recorder(Arc<Mutex<Recording>>);

#[derive(Debug, Default)]
struct Recording {
    events: Vec<Event>,
    /// The file each name holds now.
    names: BTreeMap<String, usize>,
    /// Files numbered so far.
    files: usize,
}

impl Recorder {
    /// Drains the events recorded so far.
    pub(crate) fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.0.lock().events)
    }

    fn push(&self, event: Event) {
        self.0.lock().events.push(event);
    }

    /// The file `name` holds, recording its creation if it holds none.
    fn file(&self, name: &str) -> usize {
        let mut r = self.0.lock();
        if let Some(&file) = r.names.get(name) {
            return file;
        }
        let file = r.files;
        r.files += 1;
        r.names.insert(name.to_owned(), file);
        r.events.push(Event::Create { file, name: name.to_owned() });
        file
    }

    fn rename(&self, from: &str, to: &str) {
        let mut r = self.0.lock();
        if let Some(file) = r.names.remove(from) {
            r.names.insert(to.to_owned(), file);
            r.events.push(Event::Rename { file, to: to.to_owned() });
        }
    }
}

/// A directory of durable files, whether they are fsynced, and (in the
/// crash simulator's) the recorder of their raw operations.
#[derive(Debug)]
pub struct Dir {
    path: PathBuf,
    sync: bool,
    recorder: Option<Recorder>,
}

impl Dir {
    /// Creates `path` and its parents if missing.
    pub fn create_all(path: &Path, sync: bool) -> Result<Dir> {
        fs::create_dir_all(path).map_err(io_err("create", path))?;
        Ok(Dir { path: path.to_path_buf(), sync, recorder: None })
    }

    /// Like [`Dir::create_all`] with `sync` off, but recording every raw
    /// operation to `recorder`, fsyncs included.
    pub(crate) fn recording(path: &Path, recorder: &Recorder) -> Result<Dir> {
        let recorder = Some(recorder.clone());
        Ok(Dir { recorder, ..Dir::create_all(path, false)? })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens `name` with `options`, creating it if missing, then fsyncs the
    /// directory: a file's own fsync does not persist its name.
    pub fn create(&self, name: &str, options: &mut OpenOptions) -> Result<File> {
        let file = self.open(name, options.create(true))?;
        self.sync_dir()?;
        Ok(file)
    }

    /// Opens the existing file `name` with `options`.
    pub fn open(&self, name: &str, options: &OpenOptions) -> Result<File> {
        let path = self.path.join(name);
        let file = options.open(&path).map_err(io_err("open", &path))?;
        let recorder = self.recorder.as_ref().map(|r| (r.clone(), r.file(name)));
        Ok(File { file, path, sync: self.sync, recorder })
    }

    /// Replaces `name` with `bytes` so that a crash leaves the old file or
    /// the new one, never a blend: write `name.tmp`, fsync it, rename it
    /// over `name`, fsync the directory.
    pub fn replace_atomically(&self, name: &str, bytes: &[u8]) -> Result<Synced> {
        let tmp = format!("{name}.tmp");
        let file = self.open(&tmp, OpenOptions::new().write(true).create(true).truncate(true))?;
        file.write_at(0, bytes)?.sync()?;
        let (from, to) = (self.path.join(&tmp), self.path.join(name));
        #[expect(clippy::disallowed_methods, reason = "the one rename, fsynced on both sides")]
        fs::rename(&from, &to).map_err(io_err("rename to", &to))?;
        if let Some(r) = &self.recorder {
            r.rename(&tmp, name);
        }
        self.sync_dir()
    }

    fn sync_dir(&self) -> Result<Synced> {
        if self.sync {
            let dir = fs::File::open(&self.path).map_err(io_err("open", &self.path))?;
            #[expect(clippy::disallowed_methods, reason = "the one directory fsync")]
            dir.sync_all().map_err(io_err("fsync", &self.path))?;
        }
        if let Some(r) = &self.recorder {
            r.push(Event::SyncDir);
        }
        Ok(Synced(()))
    }
}

/// A file whose writes return [`Unsynced`]. Reads go through `Deref`.
#[derive(Debug)]
pub struct File {
    file: fs::File,
    path: PathBuf,
    sync: bool,
    /// A recording directory's recorder, and this file's number in it.
    recorder: Option<(Recorder, usize)>,
}

impl Deref for File {
    type Target = fs::File;

    fn deref(&self) -> &fs::File {
        &self.file
    }
}

impl File {
    /// Pushes the event `event` makes of this file's number, if the file
    /// records.
    fn record(&self, event: impl FnOnce(usize) -> Event) {
        if let Some((r, file)) = &self.recorder {
            r.push(event(*file));
        }
    }

    /// Appends `bytes` (the file is open for append).
    pub fn append(&self, bytes: &[u8]) -> Result<Unsynced<'_>> {
        #[expect(clippy::disallowed_methods, reason = "the one append")]
        (&self.file).write_all(bytes).map_err(io_err("append to", &self.path))?;
        if self.recorder.is_some() {
            let end = self.file.metadata().map_err(io_err("stat", &self.path))?.len();
            let off = end - bytes.len() as u64;
            self.record(|file| Event::Write { file, off, bytes: bytes.to_vec() });
        }
        Ok(Unsynced(self))
    }

    /// Writes `bytes` at `off`.
    pub fn write_at(&self, off: u64, bytes: &[u8]) -> Result<Unsynced<'_>> {
        #[expect(clippy::disallowed_methods, reason = "the one positioned write")]
        self.file.write_all_at(bytes, off).map_err(io_err("write", &self.path))?;
        self.record(|file| Event::Write { file, off, bytes: bytes.to_vec() });
        Ok(Unsynced(self))
    }

    /// Writes an extent's payload at `off` (nothing, if it is empty).
    pub fn write_payload(&self, off: u64, payload: &[u8]) -> Result<PayloadWritten> {
        if !payload.is_empty() {
            #[expect(clippy::disallowed_methods, reason = "the one payload write, whose token keys the header")]
            self.file.write_all_at(payload, off).map_err(io_err("write", &self.path))?;
            self.record(|file| Event::Write { file, off, bytes: payload.to_vec() });
        }
        Ok(PayloadWritten(()))
    }

    /// Writes the header of the extent whose payload the token proves.
    pub fn write_header(&self, off: u64, bytes: &[u8], _: PayloadWritten) -> Result<Unsynced<'_>> {
        self.write_at(off, bytes)
    }

    /// Cuts or extends the file to `len` bytes.
    pub fn resize(&self, len: u64) -> Result<Unsynced<'_>> {
        #[expect(clippy::disallowed_methods, reason = "the one resize")]
        self.file.set_len(len).map_err(io_err("resize", &self.path))?;
        self.record(|file| Event::Resize { file, len });
        Ok(Unsynced(self))
    }
}
