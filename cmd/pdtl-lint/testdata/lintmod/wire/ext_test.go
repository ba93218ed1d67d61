package wire_test

import "lintmod/wire"

var external = wire.Args{"c", 3}
