// Package atomicfile holds the temp-file-and-rename writer every JSON
// export shares, so a kill mid-write never leaves a truncated file.
package atomicfile

import "os"

// Write writes doc and a trailing newline to path.tmp, then renames it
// over path. A failed write leaves path as it was.
func Write(path string, doc []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
