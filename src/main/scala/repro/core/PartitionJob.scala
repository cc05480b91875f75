package repro.core

import scala.reflect.ClassTag

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD

/** Every RDD action of the library is one `run`: `f` runs once per
  * partition of `rdd`, and the results come back in partition order,
  * which is the order of `collect`.
  *
  * Before every job Spark's closure cleaner reads and walks the class
  * that declares the task's lambda. `RDD.collect` and `RDD.fold`
  * declare theirs in `RDD` and `SparkContext`, two classes of about
  * 200 KB each, and that cost more than the tasks themselves on small
  * inputs. Here the lambda lives in this small object instead.
  */
private[repro] object PartitionJob {

  /** One job: `f` over each partition's rows, one result per partition. */
  def run[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => U): Array[U] = {
    val out = new Array[U](rdd.partitions.length)
    rdd.sparkContext.runJob(
      rdd, (_: TaskContext, it: Iterator[T]) => f(it), out.indices, (i: Int, r: U) => out(i) = r)
    out
  }
}
