package repro

import java.util.concurrent.{ForkJoinTask, RecursiveTask}
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Runs independent computations as fork-join tasks.
  *
  * Called from outside a fork-join pool, the tasks run on the JVM's common
  * pool (one thread fewer than the CPUs the JVM sees, plus the caller).
  * Called from a pool's worker, they are forked into that worker's pool, so
  * nested calls share one pool and a join helps run queued tasks instead of
  * blocking. Inside a `ForkJoinPool(1)` everything therefore runs on its one
  * worker, in order.
  */
object Par {

  /** `xs.map(f)`, with each `f(x)` a task; results in input order. The
    * tasks must not share mutable state. A task's exception is rethrown
    * as thrown (the first failing task in input order), after every task
    * has finished.
    */
  def map[A, B](xs: Seq[A])(f: A => B): Vector[B] = {
    val tasks = xs.map(x => new RecursiveTask[Try[B]] { def compute(): Try[B] = Try(f(x)) }).toVector
    ForkJoinTask.invokeAll(tasks.asJava)
    tasks.map(_.join().get)
  }
}
