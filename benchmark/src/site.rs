//! Where an episode's repository lives: the directories, the optional
//! in-process daemon, and how a (re)opened handle is obtained. "Killing" the
//! run is dropping every handle this module gave out; the bytes on disk and
//! the daemon are what survives.

use std::path::{Path, PathBuf};

use qcheck::remote::{spawn_daemon, DaemonHandle, RemoteStore};
use qcheck::repo::CheckpointRepo;
use qcheck::store::{StoreBackend, StoreKind};

use crate::spec::StoreSpec;

pub const NAMESPACE: &str = "qbench";
pub const SCRATCH_NAMESPACE: &str = "qbench-scratch";

pub struct Site {
    root: PathBuf,
    store: StoreSpec,
    daemon: Option<DaemonHandle>,
    /// Connections this site dialled.
    connects: u64,
    /// `qckptd_connections_total` when the site was created (the counter is
    /// process-wide: every daemon this process ever ran adds to it).
    accepted0: u64,
    opens: u64,
}

fn connections_accepted() -> u64 {
    qobs::counter("qckptd_connections_total").get()
}

impl Site {
    /// Creates the episode's directories and, for the remote store, spawns
    /// the daemon.
    pub fn create(root: &Path, store: StoreSpec) -> Result<Site, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        let daemon = match store {
            StoreSpec::RemotePack => Some(
                spawn_daemon(root.join("daemon"), StoreKind::Pack)
                    .map_err(|e| format!("spawning daemon: {e}"))?,
            ),
            _ => None,
        };
        Ok(Site {
            root: root.to_path_buf(),
            store,
            daemon,
            connects: 0,
            accepted0: connections_accepted(),
            opens: 0,
        })
    }

    /// A connection to `namespace` on the site's daemon.
    pub fn connect(&mut self, namespace: &str) -> Result<RemoteStore, String> {
        let daemon = self.daemon.as_ref().ok_or("site has no daemon")?;
        self.connects += 1;
        RemoteStore::connect(daemon.addr(), namespace).map_err(|e| format!("connecting: {e}"))
    }

    /// Connections the daemon accepted beyond those this site dialled: the
    /// client's reconnects after transport failures.
    pub fn reconnects(&self) -> u64 {
        (connections_accepted() - self.accepted0).saturating_sub(self.connects)
    }

    /// Opens the repository. Local stores reopen the same directory; the
    /// remote store gets a fresh working directory on every call, so a resume
    /// has to pull the metadata and every chunk from the daemon.
    pub fn open(&mut self) -> Result<CheckpointRepo, String> {
        self.opens += 1;
        let err = |e: qcheck::Error| format!("opening repository: {e}");
        match self.store {
            StoreSpec::Pack => {
                CheckpointRepo::open_with(self.root.join("repo"), StoreKind::Pack).map_err(err)
            }
            StoreSpec::RemotePack => {
                let store = self.connect(NAMESPACE)?;
                let dir = self.root.join(format!("work-{}", self.opens));
                CheckpointRepo::with_store(dir, StoreBackend::Remote(store)).map_err(err)
            }
        }
    }

    /// A scratch store of the same kind as `repo`'s, for the staged replays.
    pub fn scratch_store(&mut self, repo: &CheckpointRepo) -> Result<StoreBackend, String> {
        match repo.store_kind() {
            StoreKind::Remote => Ok(StoreBackend::Remote(self.connect(SCRATCH_NAMESPACE)?)),
            kind => StoreBackend::open(&self.scratch_dir(), kind)
                .map_err(|e| format!("opening scratch store: {e}")),
        }
    }

    /// Directory for the staged replays' scratch store, log and root slots.
    pub fn scratch_dir(&self) -> PathBuf {
        self.root.join("scratch")
    }

    /// Directory whose `packs/` holds this site's pack files, if any.
    pub fn packs_dir(&self) -> PathBuf {
        match self.store {
            StoreSpec::RemotePack => self.root.join("daemon").join("ns").join(NAMESPACE),
            _ => self.root.join("repo"),
        }
        .join("packs")
    }

    /// Bytes of every file the run left on disk: store, logs, root slots,
    /// markers; for the remote store the daemon's tree plus every working
    /// directory. The staged replays' scratch area is not the run's.
    pub fn disk_bytes(&self) -> u64 {
        let scratch = self.scratch_dir();
        let daemon_scratch = self.root.join("daemon").join("ns").join(SCRATCH_NAMESPACE);
        dir_bytes(&self.root, &[&scratch, &daemon_scratch])
    }

    /// Shuts the daemon down (joining its threads) and removes every file.
    pub fn destroy(self) {
        if let Some(daemon) = self.daemon {
            daemon.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Sum of file sizes under `dir`, skipping the `skip` subtrees.
pub fn dir_bytes(dir: &Path, skip: &[&Path]) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if skip.iter().any(|s| *s == path) {
                return 0;
            }
            match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&path, skip),
                Ok(m) => m.len(),
                Err(_) => 0,
            }
        })
        .sum()
}

/// `(file name, size)` of every file directly under `dir`, sorted.
pub fn list_files(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let m = e.metadata().ok()?;
                    m.is_file()
                        .then(|| (e.file_name().to_string_lossy().into_owned(), m.len()))
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}
