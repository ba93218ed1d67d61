package wire

var inPackage = Args{"b", 2}
