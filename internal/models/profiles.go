// Package models provides the workloads of the paper's evaluation:
// exact parameter-shape profiles of ResNet50 and BERT-large (used by the
// latency simulator, which needs sizes but not weights) and small
// runnable models (used by the real-execution convergence experiments).
package models

import "fmt"

// ParamSpec describes one parameter tensor of a model profile.
type ParamSpec struct {
	// Name is the PyTorch-style dotted parameter name.
	Name string
	// Shape is the tensor shape.
	Shape []int
}

// Elems returns the element count of the parameter.
func (p ParamSpec) Elems() int {
	n := 1
	for _, d := range p.Shape {
		n *= d
	}
	return n
}

// Profile is an ordered list of parameter specs, in the same order
// model.parameters() would yield them (registration order — the order
// DDP's bucketing reverses).
type Profile struct {
	// Name identifies the workload in benchmark output.
	Name string
	// Params lists parameters in registration order.
	Params []ParamSpec
	// ComputeIntensity is the compute-seconds-per-parameter factor
	// relative to the convolutional reference (hw.ProfileScaled):
	// 1.0 for conv nets, lower for transformers, whose parameters see
	// far fewer FLOPs each.
	ComputeIntensity float64
}

// TotalParams returns the total parameter count.
func (p *Profile) TotalParams() int {
	n := 0
	for _, s := range p.Params {
		n += s.Elems()
	}
	return n
}

// Sizes returns per-parameter element counts in registration order.
func (p *Profile) Sizes() []int {
	sizes := make([]int, len(p.Params))
	for i, s := range p.Params {
		sizes[i] = s.Elems()
	}
	return sizes
}

func (p *Profile) add(name string, shape ...int) {
	p.Params = append(p.Params, ParamSpec{Name: name, Shape: shape})
}

// conv adds a conv weight (no bias, as in torchvision ResNet).
func (p *Profile) conv(name string, out, in, k int) {
	p.add(name+".weight", out, in, k, k)
}

// bn adds BatchNorm weight and bias.
func (p *Profile) bn(name string, c int) {
	p.add(name+".weight", c)
	p.add(name+".bias", c)
}

// linear adds a Linear weight and bias.
func (p *Profile) linear(name string, in, out int) {
	p.add(name+".weight", out, in)
	p.add(name+".bias", out)
}

// ResNet50 returns the exact torchvision ResNet50 parameter layout:
// 25,557,032 parameters across 161 tensors.
func ResNet50() *Profile { return resnet("resnet50", []int{3, 4, 6, 3}) }

// ResNet152 returns the torchvision ResNet152 layout (~60.2M
// parameters), the model behind the paper's Fig 2(c)/(d) backward
// timing curves.
func ResNet152() *Profile { return resnet("resnet152", []int{3, 8, 36, 3}) }

// resnet builds a bottleneck ResNet profile with the given block counts.
func resnet(name string, blocks []int) *Profile {
	p := &Profile{Name: name, ComputeIntensity: 1}
	p.conv("conv1", 64, 3, 7)
	p.bn("bn1", 64)
	inPlanes := 64
	planes := 64
	const expansion = 4
	for stage, n := range blocks {
		for b := 0; b < n; b++ {
			prefix := fmt.Sprintf("layer%d.%d", stage+1, b)
			p.conv(prefix+".conv1", planes, inPlanes, 1)
			p.bn(prefix+".bn1", planes)
			p.conv(prefix+".conv2", planes, planes, 3)
			p.bn(prefix+".bn2", planes)
			p.conv(prefix+".conv3", planes*expansion, planes, 1)
			p.bn(prefix+".bn3", planes*expansion)
			if b == 0 {
				// Downsample shortcut in the first block of each stage.
				p.conv(prefix+".downsample.0", planes*expansion, inPlanes, 1)
				p.bn(prefix+".downsample.1", planes*expansion)
			}
			inPlanes = planes * expansion
		}
		planes *= 2
	}
	p.linear("fc", inPlanes, 1000)
	return p
}

// BERTLarge returns the BERT-large-uncased encoder layout (~335M
// parameters): 24 layers, hidden size 1024, 16 heads, intermediate
// 4096, vocabulary 30522. The paper uses BERT as its large NLP workload
// ("15X more parameters compared to ResNet50").
func BERTLarge() *Profile {
	const (
		layers       = 24
		hidden       = 1024
		intermediate = 4096
		vocab        = 30522
		maxPos       = 512
		typeVocab    = 2
	)
	p := &Profile{Name: "bert-large", ComputeIntensity: 0.3}
	p.add("embeddings.word_embeddings.weight", vocab, hidden)
	p.add("embeddings.position_embeddings.weight", maxPos, hidden)
	p.add("embeddings.token_type_embeddings.weight", typeVocab, hidden)
	p.add("embeddings.LayerNorm.weight", hidden)
	p.add("embeddings.LayerNorm.bias", hidden)
	for l := 0; l < layers; l++ {
		prefix := fmt.Sprintf("encoder.layer.%d", l)
		p.linear(prefix+".attention.self.query", hidden, hidden)
		p.linear(prefix+".attention.self.key", hidden, hidden)
		p.linear(prefix+".attention.self.value", hidden, hidden)
		p.linear(prefix+".attention.output.dense", hidden, hidden)
		p.add(prefix+".attention.output.LayerNorm.weight", hidden)
		p.add(prefix+".attention.output.LayerNorm.bias", hidden)
		p.linear(prefix+".intermediate.dense", hidden, intermediate)
		p.linear(prefix+".output.dense", intermediate, hidden)
		p.add(prefix+".output.LayerNorm.weight", hidden)
		p.add(prefix+".output.LayerNorm.bias", hidden)
	}
	p.linear("pooler.dense", hidden, hidden)
	return p
}
