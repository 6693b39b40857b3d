// Package raid implements the RAID substrate the paper's prototype sits on:
// Galois-field arithmetic and parity codecs operating on real bytes, stripe
// layout address math for RAID5/6 (left-symmetric RAID5 as in Linux MD),
// a byte-accurate in-memory array used to prove codec/layout correctness,
// and the timed Array that models request fan-out, read-modify-write parity
// updates, degraded reads and disk replacement on the simulation clock.
package raid

// GF(2^8) arithmetic with the AES/Reed-Solomon field polynomial x^8 + x^4 +
// x^3 + x^2 + 1 (0x11d), the field Linux MD's RAID6 uses. Exp/log tables are
// built once at init.

const gfPoly = 0x11d

var (
	gfExp [512]byte // doubled so gfMul can skip a modulo
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b (b must be nonzero).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("raid: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a (a must be nonzero).
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfPow returns g^n where g = 2 is the field generator.
func gfPow(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// mulSlice computes dst[i] ^= c * src[i] for all i.
func mulSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(dst, src)
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}

// xorSlice computes dst[i] ^= src[i] for all i.
func xorSlice(dst, src []byte) {
	for i, s := range src {
		dst[i] ^= s
	}
}
