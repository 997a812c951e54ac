package store

import (
	"errors"
	"fmt"
	"os"
	"syscall"

	"github.com/foss-db/foss/internal/fosserr"
)

// acquireLock takes a non-blocking exclusive flock on path, creating the
// file if needed. flock is advisory but exactly right here: every writer of
// a state directory is this package, the lock is scoped to the open file
// description (so two Opens inside one process conflict just like two
// processes do), and the kernel releases it when the holder dies — a
// SIGKILLed doctor never needs a lock-cleanup step before its warm restart.
func acquireLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lockfile %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
			return nil, fmt.Errorf("store: %s held by another live store: %w", path, fosserr.ErrStoreLocked)
		}
		return nil, fmt.Errorf("store: flock %s: %w", path, err)
	}
	return f, nil
}

// releaseLock drops the flock and closes the lockfile. Best-effort: closing
// the descriptor releases the lock even if the explicit unlock fails.
func releaseLock(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	_ = f.Close()
}
