// Package fdsp implements Fully Decomposable Spatial Partition (paper
// Section 3.2): the input feature map is split into an R×C grid of tiles
// and the early ("separable") layer blocks process every tile completely
// independently, zero-padding at tile borders instead of exchanging data
// halos. The package also implements the exact halo-extended partition
// used by the AOFL baseline, so the two strategies can be compared
// numerically.
package fdsp

import (
	"fmt"

	"adcnn/internal/tensor"
)

// Grid describes an R×C spatial partition.
type Grid struct {
	Rows, Cols int
}

// Tiles returns the number of tiles in the grid.
func (g Grid) Tiles() int { return g.Rows * g.Cols }

// Validate checks the grid is non-degenerate.
func (g Grid) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("fdsp: invalid grid %dx%d", g.Rows, g.Cols)
	}
	return nil
}

// String formats the grid the way the paper writes partitions ("8x8").
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Rows, g.Cols) }

// Tile identifies one cell of the partition and its pixel rectangle in
// the source image.
type Tile struct {
	Index    int // row-major index, also the paper's tile ID t_id
	Row, Col int
	Y0, X0   int // top-left corner in the source image
	H, W     int // tile size in pixels
}

// Layout computes the tile rectangles for an h×w image. Remainder pixels
// are distributed to the earliest rows/columns so tile sizes differ by at
// most one.
func (g Grid) Layout(h, w int) []Tile {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if h < g.Rows || w < g.Cols {
		panic(fmt.Sprintf("fdsp: image %dx%d smaller than grid %v", h, w, g))
	}
	tiles := make([]Tile, 0, g.Tiles())
	y := 0
	for r := 0; r < g.Rows; r++ {
		th := h / g.Rows
		if r < h%g.Rows {
			th++
		}
		x := 0
		for c := 0; c < g.Cols; c++ {
			tw := w / g.Cols
			if c < w%g.Cols {
				tw++
			}
			tiles = append(tiles, Tile{
				Index: r*g.Cols + c, Row: r, Col: c,
				Y0: y, X0: x, H: th, W: tw,
			})
			x += tw
		}
		y += th
	}
	return tiles
}

// ExtractTile copies tile t out of a [1,C,H,W] image.
func ExtractTile(x *tensor.Tensor, t Tile) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("fdsp: ExtractTile expects [1,C,H,W], got %v", x.Shape))
	}
	out := tensor.New(1, x.Shape[1], t.H, t.W)
	ExtractTileInto(out, x, t)
	return out
}

// ExtractTileInto is ExtractTile copying into dst, shaped [1,C,t.H,t.W];
// it writes every element of dst.
func ExtractTileInto(dst, x *tensor.Tensor, t Tile) {
	if x.Rank() != 4 || x.Shape[0] != 1 {
		panic(fmt.Sprintf("fdsp: ExtractTile expects [1,C,H,W], got %v", x.Shape))
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	if t.Y0+t.H > h || t.X0+t.W > w {
		panic(fmt.Sprintf("fdsp: tile %+v outside image %dx%d", t, h, w))
	}
	if dst.Len() != c*t.H*t.W {
		panic(fmt.Sprintf("fdsp: tile %+v of %d channels into %v", t, c, dst.Shape))
	}
	for ch := 0; ch < c; ch++ {
		for ty := 0; ty < t.H; ty++ {
			srcOff := ch*h*w + (t.Y0+ty)*w + t.X0
			dstOff := ch*t.H*t.W + ty*t.W
			copy(dst.Data[dstOff:dstOff+t.W], x.Data[srcOff:srcOff+t.W])
		}
	}
}

// Crop copies the h×w rectangle at (top, left) out of a [1,C,H,W] map.
func Crop(x *tensor.Tensor, top, left, h, w int) *tensor.Tensor {
	c, sh, sw := x.Shape[1], x.Shape[2], x.Shape[3]
	if top < 0 || left < 0 || top+h > sh || left+w > sw {
		panic(fmt.Sprintf("fdsp: crop (%d,%d,%d,%d) outside map %dx%d", top, left, h, w, sh, sw))
	}
	out := tensor.New(1, c, h, w)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			srcOff := ch*sh*sw + (y+top)*sw + left
			dstOff := ch*h*w + y*w
			copy(out.Data[dstOff:dstOff+w], x.Data[srcOff:srcOff+w])
		}
	}
	return out
}

// Reassemble stitches per-tile outputs (index order matching Layout) back
// into one [1,C,H,W] map. Tiles in the same grid row must share a height
// and tiles in the same grid column must share a width; this holds
// whenever the per-tile network applies a uniform downsampling factor.
func Reassemble(tiles []*tensor.Tensor, g Grid) *tensor.Tensor {
	c, h, w := MergedSize(tiles, g)
	out := tensor.New(1, c, h, w)
	ReassembleInto(out, tiles, g)
	return out
}

// MergedSize returns the channels, height and width of the map that
// Reassemble stitches tiles into: the heights of the first grid column
// and the widths of the first grid row, summed. It panics when a tile's
// shape breaks the grid's row heights or column widths.
func MergedSize(tiles []*tensor.Tensor, g Grid) (c, h, w int) {
	if len(tiles) != g.Tiles() {
		panic(fmt.Sprintf("fdsp: %d tiles for grid %v", len(tiles), g))
	}
	c = tiles[0].Shape[1]
	for r := 0; r < g.Rows; r++ {
		h += tiles[r*g.Cols].Shape[2]
	}
	for cc := 0; cc < g.Cols; cc++ {
		w += tiles[cc].Shape[3]
	}
	for i, t := range tiles {
		r, cc := i/g.Cols, i%g.Cols
		if t.Shape[1] != c || t.Shape[2] != tiles[r*g.Cols].Shape[2] || t.Shape[3] != tiles[cc].Shape[3] {
			panic(fmt.Sprintf("fdsp: tile (%d,%d) shape %v inconsistent with row height %d / col width %d",
				r, cc, t.Shape, tiles[r*g.Cols].Shape[2], tiles[cc].Shape[3]))
		}
	}
	return c, h, w
}

// ReassembleInto is Reassemble writing into dst, shaped [1, MergedSize];
// it writes every element of dst.
func ReassembleInto(dst *tensor.Tensor, tiles []*tensor.Tensor, g Grid) {
	c, totalH, totalW := MergedSize(tiles, g)
	if dst.Len() != c*totalH*totalW {
		panic(fmt.Sprintf("fdsp: %d×%d×%d map into %v", c, totalH, totalW, dst.Shape))
	}
	y := 0
	for r := 0; r < g.Rows; r++ {
		x := 0
		for cc := 0; cc < g.Cols; cc++ {
			t := tiles[r*g.Cols+cc]
			th, tw := t.Shape[2], t.Shape[3]
			for ch := 0; ch < c; ch++ {
				for ty := 0; ty < th; ty++ {
					srcOff := ch*th*tw + ty*tw
					dstOff := ch*totalH*totalW + (y+ty)*totalW + x
					copy(dst.Data[dstOff:dstOff+tw], t.Data[srcOff:srcOff+tw])
				}
			}
			x += tw
		}
		y += tiles[r*g.Cols].Shape[2]
	}
}

// SplitBatch rearranges [N,C,H,W] into [N*T,C,H/R,W/C] so the separable
// blocks can process every tile of every sample as one batch. H must be
// divisible by R and W by C (training-time sim models choose such sizes).
func SplitBatch(x *tensor.Tensor, g Grid) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%g.Rows != 0 || w%g.Cols != 0 {
		panic(fmt.Sprintf("fdsp: SplitBatch needs %dx%d divisible by grid %v", h, w, g))
	}
	th, tw := h/g.Rows, w/g.Cols
	out := tensor.New(n*g.Tiles(), c, th, tw)
	for i := 0; i < n; i++ {
		for r := 0; r < g.Rows; r++ {
			for cc := 0; cc < g.Cols; cc++ {
				dst := ((i*g.Tiles() + r*g.Cols + cc) * c) * th * tw
				for ch := 0; ch < c; ch++ {
					for ty := 0; ty < th; ty++ {
						srcOff := ((i*c+ch)*h+(r*th+ty))*w + cc*tw
						dstOff := dst + ch*th*tw + ty*tw
						copy(out.Data[dstOff:dstOff+tw], x.Data[srcOff:srcOff+tw])
					}
				}
			}
		}
	}
	return out
}

// MergeBatch reverses SplitBatch after the per-tile network has run:
// [N*T,C',h,w] becomes [N,C',h*R,w*C].
func MergeBatch(y *tensor.Tensor, g Grid, n int) *tensor.Tensor {
	nt, c, th, tw := y.Shape[0], y.Shape[1], y.Shape[2], y.Shape[3]
	if nt != n*g.Tiles() {
		panic(fmt.Sprintf("fdsp: MergeBatch got %d tile-samples for n=%d grid %v", nt, n, g))
	}
	h, w := th*g.Rows, tw*g.Cols
	out := tensor.New(n, c, h, w)
	for i := 0; i < n; i++ {
		for r := 0; r < g.Rows; r++ {
			for cc := 0; cc < g.Cols; cc++ {
				src := ((i*g.Tiles() + r*g.Cols + cc) * c) * th * tw
				for ch := 0; ch < c; ch++ {
					for ty := 0; ty < th; ty++ {
						srcOff := src + ch*th*tw + ty*tw
						dstOff := ((i*c+ch)*h+(r*th+ty))*w + cc*tw
						copy(out.Data[dstOff:dstOff+tw], y.Data[srcOff:srcOff+tw])
					}
				}
			}
		}
	}
	return out
}
