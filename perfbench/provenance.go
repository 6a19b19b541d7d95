package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// gitState returns the checked-out commit and whether tracked files are
// modified. Outside a git work tree it returns "none" and a nil flag; the
// source digest still identifies the tree.
func gitState() (string, *bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "none", nil
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", nil
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), nil
	}
	dirty := len(strings.TrimSpace(string(status))) > 0
	return strings.TrimSpace(string(head)), &dirty
}

// sourceDigest hashes the path and bytes of every regular file under
// root outside hidden directories, in walk order: the identity of the
// measured tree, git or not. Unreadable files are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path)
		h.Write([]byte{0})
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
