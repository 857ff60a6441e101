package replica

// DecodeSnapshot is decodeSnapshot, for the external test package.
var DecodeSnapshot = decodeSnapshot
