package spill

import (
	"fmt"
	"sort"
)

// KeydirDump renders the keydir canonically — keys in lexicographic
// order, one line per live key — so recovered states can be compared
// byte-for-byte across runs and parallelism settings.
func (d *Dir) KeydirDump() []byte {
	keys := make([]string, 0, len(d.keydir))
	for k := range d.keydir {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		e := d.keydir[k]
		b = fmt.Appendf(b, "%x seq=%d seg=%d off=%d size=%d\n", k, e.seq, e.seg, e.off, e.size)
	}
	return b
}
