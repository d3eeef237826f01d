//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loops in im2col.go take every frame
// and unframe copy row by row, MaxPool runs poolImageGo, and Direct is false,
// so Convolve and ConvGrad always run the lowered path.

func convolveDirect(pw padWalk, w *Matrix, bias, pad, out []float64, relu bool) {
	panic("tensor: no direct convolution kernel in this build")
}

func (g *ConvGrad) directDW(pw padWalk, grad, out, pad, dw []float64) {
	panic("tensor: no direct conv backward kernel in this build")
}

func (g *ConvGrad) directDB(grad, out, dB []float64) {
	panic("tensor: no direct conv backward kernel in this build")
}

func (g *ConvGrad) directDX(grad, out, dIn []float64) {
	panic("tensor: no direct conv backward kernel in this build")
}

func moveRows(dst, src []float64, chans, rows, width, dstRow, dstPlane, srcRow, srcPlane int) bool {
	return false
}

func poolBulk(src []float64, width int, dst []float64, argmax []int) bool { return false }
