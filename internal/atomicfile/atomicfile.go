// Package atomicfile holds the temp-file-and-rename writer every exported
// file shares (JSON exports, figure CSVs, SVGs, tracegen dumps), so a kill
// mid-write never leaves a truncated file.
package atomicfile

import "os"

// Write writes exactly data to path.tmp, then renames it over path. A
// failed write leaves path as it was.
func Write(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
