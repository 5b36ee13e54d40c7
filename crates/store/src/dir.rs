//! Opening a problem file relative to a handle on its directory.
//!
//! The kernel walks every component of a path on each `open`. A frame's
//! problems share one directory, so a [`ParentDir`] holds that directory
//! open for one frame build and each file costs a walk of one name
//! (`openat`). Only Linux on targets with the generic `fcntl.h` flag
//! values does this; elsewhere each file opens by its path.

pub(crate) use at::ParentDir;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod at {
    use std::ffi::OsStr;
    use std::fs::{File, OpenOptions};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::os::raw::{c_char, c_int};
    use std::os::unix::ffi::OsStrExt;
    use std::os::unix::fs::OpenOptionsExt;
    use std::path::{Path, PathBuf};

    // The generic `fcntl.h` values, which these targets use.
    const O_RDONLY: c_int = 0;
    const O_CLOEXEC: c_int = 0o2_000_000;
    const O_PATH: c_int = 0o10_000_000;
    /// `NAME_MAX` and the terminating NUL.
    const NAME_BUF: usize = 256;

    extern "C" {
        fn openat(dirfd: c_int, pathname: *const c_char, flags: c_int, ...) -> c_int;
    }

    /// The parent directory of the last file opened, held open until
    /// another parent replaces it or the value is dropped.
    #[derive(Debug, Default)]
    pub(crate) struct ParentDir {
        held: Option<(PathBuf, File)>,
    }

    impl ParentDir {
        /// Open `path` read-only, relative to a handle on its parent. A
        /// path without one, or whose name `openat` cannot take, opens by
        /// path: the same file, or the same error.
        pub(crate) fn open(&mut self, path: &Path) -> io::Result<File> {
            let (Some(parent), Some(name)) = (path.parent(), path.file_name()) else {
                return File::open(path);
            };
            if parent.as_os_str().is_empty() {
                return File::open(path);
            }
            let dir = match &self.held {
                Some((held, dir)) if held.as_os_str() == parent.as_os_str() => dir,
                _ => {
                    self.held = None;
                    // O_PATH only anchors lookups, so it needs no read
                    // permission on the directory, as an open by path
                    // needs none.
                    let dir = OpenOptions::new()
                        .read(true)
                        .custom_flags(O_PATH)
                        .open(parent)?;
                    &self.held.insert((parent.to_path_buf(), dir)).1
                }
            };
            open_in(dir, name).unwrap_or_else(|| File::open(path))
        }
    }

    /// Open `name` in `dir` read-only. `None` when `name` does not fit
    /// the stack buffer or holds a NUL byte.
    fn open_in(dir: &File, name: &OsStr) -> Option<io::Result<File>> {
        let name = name.as_bytes();
        if name.len() >= NAME_BUF || name.contains(&0) {
            return None;
        }
        let mut buf = [0u8; NAME_BUF];
        buf[..name.len()].copy_from_slice(name);
        loop {
            // SAFETY: `buf` is NUL-terminated and outlives the call, and
            // `dir` is an open descriptor. A non-negative result is a new
            // descriptor that nothing else owns, so the `File` may close
            // it.
            let file = unsafe {
                let fd = openat(dir.as_raw_fd(), buf.as_ptr().cast(), O_RDONLY | O_CLOEXEC);
                (fd >= 0).then(|| File::from_raw_fd(fd))
            };
            match file.ok_or_else(io::Error::last_os_error) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                opened => return Some(opened),
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod at {
    use std::fs::File;
    use std::io;
    use std::path::Path;

    /// Holds nothing: every file opens by its path.
    #[derive(Debug, Default)]
    pub(crate) struct ParentDir;

    impl ParentDir {
        /// Open `path` read-only.
        pub(crate) fn open(&mut self, path: &Path) -> io::Result<File> {
            File::open(path)
        }
    }
}
