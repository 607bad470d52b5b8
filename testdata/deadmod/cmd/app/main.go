package main

import (
	"fmt"

	"deadmod/internal/lib"
)

func main() {
	fmt.Println(lib.Called(), lib.Celsius(21))
}
