// Shortest float formatting for the sweep writer's 'f' range. A ladder
// sweep writes three energies per point, and strconv's shortest mode
// (Ryū, with its digit-by-digit trimming loop) cost more than evaluating
// the point. appendShortest writes the same text with Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020; OpenJDK's
// DoubleToDecimal): the shortest decimal in the double's rounding
// interval and, among several, the closest, ties to even — the decimal
// strconv's shortest mode selects. The arithmetic is integer-only, so no
// GOARCH's float contraction can change a byte.

package daemon

import (
	"math"
	"math/bits"
)

const kMin, kMax = -23, 5

// pow10Inv holds, for k = kMin…kMax, g(k) = ⌊10^−k·2^(125−r)⌋ + 1 with
// r = ⌊log₂10^−k⌋, as two 63-bit halves {g >> 63, g mod 2^63}. Doubles
// in [1e-6, 1e21) are c·2^q with q ∈ [−72, 17], and their k = ⌊q·log₁₀2⌋,
// or ⌊log₁₀(¾·2^q)⌋ at c = 2^52, lies in [−22, 5]; kMin, the k of
// c = 2^52 at q = −73, leaves one binade of margin. TestPow10InvTable
// recomputes every entry with math/big.
var pow10Inv = [kMax - kMin + 1][2]uint64{
	{0x54b40b1f852bda00, 0x0000000000000001}, // -23
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, // -9
	{0x5f5e100000000000, 0x0000000000000001}, // -8
	{0x4c4b400000000000, 0x0000000000000001}, // -7
	{0x7a12000000000000, 0x0000000000000001}, // -6
	{0x61a8000000000000, 0x0000000000000001}, // -5
	{0x4e20000000000000, 0x0000000000000001}, // -4
	{0x7d00000000000000, 0x0000000000000001}, // -3
	{0x6400000000000000, 0x0000000000000001}, // -2
	{0x5000000000000000, 0x0000000000000001}, // -1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}

// appendShortest appends f, 1e-6 <= |f| < 1e21, exactly as
// strconv.AppendFloat(b, f, 'f', -1, 64) does. Names follow the paper and
// OpenJDK's DoubleToDecimal.
func appendShortest(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	q := int(u>>52&0x7ff) - 1075 // normal in this range: f = c·2^q
	c := u&(1<<52-1) | 1<<52

	// The rounding interval is [cbl, cbr]·2^(q−2), open when c is odd
	// (out = 1), around v = cb·2^(q−2). At c = 2^52 the double below is
	// half as far away as the one above.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	k := flog10pow2(q)
	if c == 1<<52 {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	// Scaled by 10^−k: vb, vbl and vbr are 4·v·10^−k and the bounds,
	// rounded to odd, so the comparisons below are exact.
	h := q + flog2pow10(-k) + 2
	g := &pow10Inv[k-kMin]
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	// At most one multiple of 10^(k+1) lies in the interval; if one does,
	// it is the shortest decimal.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return appendDecimal(b, sp10, k)
		}
		return appendDecimal(b, tp10, k)
	}
	// Otherwise s·10^k or (s+1)·10^k, whichever is in the interval, or
	// the closer to v when both are, ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return appendDecimal(b, s, k)
		}
		return appendDecimal(b, t, k)
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return appendDecimal(b, s, k)
	}
	return appendDecimal(b, t, k)
}

// rop returns cp·g/2^127 rounded to odd, g = g[0]·2^63 + g[1].
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 returns ⌊e·log₁₀2⌋, flog10ThreeQuartersPow2 ⌊log₁₀(¾·2^e)⌋
// and flog2pow10 ⌊e·log₂10⌋, in 64-bit arithmetic on every GOARCH.
// TestPow10InvTable checks them at every exponent appendShortest passes.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// appendDecimal appends d·10^k, 0 < d < 10^17, in 'f' format: the
// digits without trailing zeros after the point and "0." before a
// fraction below 1.
func appendDecimal(b []byte, d uint64, k int) []byte {
	var digits [17]byte
	hi := d / 1e8
	write8(digits[9:], uint32(d-hi*1e8))
	top := hi / 1e8
	write8(digits[1:], uint32(hi-top*1e8))
	digits[0] = byte('0' + top)
	first := 0
	for digits[first] == '0' {
		first++
	}
	if k >= 0 {
		b = append(b, digits[first:]...)
		for ; k > 0; k-- {
			b = append(b, '0')
		}
		return b
	}
	last := len(digits)
	for digits[last-1] == '0' {
		last--
	}
	point := len(digits) + k // digits[:point] are the integer part
	if point <= first {
		b = append(b, '0', '.')
		for i := point; i < first; i++ {
			b = append(b, '0')
		}
		return append(b, digits[first:last]...)
	}
	b = append(b, digits[first:point]...)
	if last > point {
		b = append(b, '.')
		b = append(b, digits[point:last]...)
	}
	return b
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// write8 writes x < 10^8 as eight digits, zero-padded, to dst[:8], in
// 32-bit arithmetic.
func write8(dst []byte, x uint32) {
	_ = dst[7]
	hi, lo := x/10000, x%10000
	a, b, c, d := hi/100, hi%100, lo/100, lo%100
	dst[0], dst[1] = digitPairs[2*a], digitPairs[2*a+1]
	dst[2], dst[3] = digitPairs[2*b], digitPairs[2*b+1]
	dst[4], dst[5] = digitPairs[2*c], digitPairs[2*c+1]
	dst[6], dst[7] = digitPairs[2*d], digitPairs[2*d+1]
}
